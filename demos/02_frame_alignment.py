"""Recover sub-pixel camera shifts between two frames of the same scene.

Frames shot years apart rarely line up pixel-for-pixel. Before comparing
them, each frame is registered to an anchor: a coarse-to-fine search for the
translation (optionally translation + rotation) that minimizes the mean
square luminance difference. Accuracy well under a tenth of a pixel is
normal on smooth scenes.
"""

import numpy as np

from somqe import RasterImage, register_pair, resample
from somqe.register import RegistrationTransform, reference_pyramid

rng = np.random.default_rng(3)


def smooth_scene(size: int = 256) -> RasterImage:
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    channels = []
    for _ in range(3):
        total = np.zeros_like(xs)
        for _ in range(6):
            freq = rng.uniform(0.02, 0.12)
            angle = rng.uniform(0, 2 * np.pi)
            phase = rng.uniform(0, 2 * np.pi)
            total += np.sin(
                freq * np.cos(angle) * xs + freq * np.sin(angle) * ys + phase
            )
        lo, hi = total.min(), total.max()
        channels.append(10 + (total - lo) * (235.0 / (hi - lo)))
    return RasterImage(np.stack(channels, axis=-1))


anchor = smooth_scene()
# the anchor's luminance pyramid and its gradients, built once for every
# registration below
anchor_levels = reference_pyramid(anchor.luminance())

true_shift = RegistrationTransform("translation", dx=3.6, dy=-2.25, theta=0.0)
moving = resample(anchor, true_shift.inverse())

# the residual is the mean square luminance difference left at the found
# transform, over the pixels it maps from inside the moving frame
found, residual = register_pair(anchor_levels, moving, "translation")
print(f"true shift   dx {true_shift.dx:+.3f}  dy {true_shift.dy:+.3f}")
print(f"recovered    dx {found.dx:+.3f}  dy {found.dy:+.3f}")
print(
    "error        dx %.1e  dy %.1e px"
    % (abs(found.dx - true_shift.dx), abs(found.dy - true_shift.dy))
)
print(f"residual     {residual:.4f}\n")

# rigid mode adds a rotation angle about the image center
true_rigid = RegistrationTransform("rigid", dx=1.5, dy=-0.75, theta=0.02)
rotated = resample(anchor, true_rigid.inverse())
found_rigid, _ = register_pair(anchor_levels, rotated, "rigid")
print(f"true rigid   theta {true_rigid.theta:+.5f} rad")
print(f"recovered    theta {found_rigid.theta:+.5f} rad")

# a whole stack registers against its last frame
stack = [resample(anchor, RegistrationTransform(
    "translation", dx=float(d), dy=float(-d) / 2, theta=0.0).inverse())
    for d in (2, 4)] + [anchor]
print("\nstack alignment (anchor is the last frame):")
for i, frame in enumerate(stack):
    t, residual = register_pair(anchor_levels, frame, "translation")
    print(f"  frame {i}: dx {t.dx:+.3f}  dy {t.dy:+.3f}  residual {residual:.4f}")
