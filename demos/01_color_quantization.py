"""Train a small color map on an image and read its quantization error.

The map is a width x height grid of RGB models. Training snaps the models
onto the image's dominant colors; the mean distance from each pixel to its
nearest model (the quantization error, QE) then measures how well that
palette summarizes the image. A map trained on one scene gives higher QE on
scenes with colors it never saw, which is the whole trick this library is
built around.
"""

import numpy as np

from somqe import RasterImage, TrainingParams, fit_som, quantization_error
from somqe.som import empty_model_count

rng = np.random.default_rng(11)

# a toy scene: two color regions plus speckle
scene = np.full((64, 64, 3), (40, 90, 160), dtype=np.uint8)
scene[:, 32:] = (190, 160, 60)
speckle = rng.integers(0, 64, size=(120, 2))
scene[speckle[:, 0], speckle[:, 1]] = rng.integers(0, 256, size=(120, 3))
image = RasterImage(scene)

params = TrainingParams(
    learning_rate=0.2, neighborhood_radius=1.2, iterations=1000, seed=0
)

# a model is "empty" when no pixel picks it as nearest; oversized maps waste
# models that way, so the largest size with none empty is large enough
for width, height in [(1, 1), (2, 1), (2, 2), (3, 3), (4, 4), (6, 6)]:
    grid = fit_som(image, width, height, params)
    result = quantization_error(image, grid)
    print(
        f"{width}x{height} map: qe {result.qe:.5f}, "
        f"{empty_model_count(result)} empty models"
    )
