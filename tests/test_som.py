"""Map training and scoring against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from somqe import (
    InputError,
    RasterImage,
    SomGrid,
    TrainingParams,
    best_matching_unit,
    empty_model_count,
    fit_som,
    initialize_grid,
    quantization_error,
    train,
    train_step,
)
from somqe import som
from somqe.som import grid_from_text, grid_to_text
from somqe.rng import INIT_STREAM, SAMPLE_STREAM, substream_seed

from conftest import random_image, two_color_image
from oracles import (
    broadcast_quantization_error,
    brute_force_bmu,
    grid_neighbors_within,
    numpy_pairwise_sum,
    pixel_vectors,
    splitmix64_sequence,
    train_by_steps,
)


def small_grid(seed: int, width: int = 3, height: int = 2) -> SomGrid:
    rng = np.random.default_rng(seed)
    return SomGrid(width, height, rng.random((width * height, 3)))


# ---------------------------------------------------------------------------
# summation

SUM_DTYPES = (np.float64, np.float32)  # QE and fits; the solver's `_dot`


@pytest.mark.parametrize("dtype", SUM_DTYPES)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_numpy_reduction_matches_its_restatement(dtype, data):
    """Every long sum in the package is `np.add.reduce` of a contiguous array,
    so its order is pinned to the oracle's restatement bit for bit."""
    width = 64 if dtype is np.float64 else 32
    values = data.draw(st.lists(
        st.floats(-(2.0**40), 2.0**40, width=width), max_size=300
    ))
    a = np.array(values, dtype=dtype)
    got = np.add.reduce(a)
    assert got.dtype == dtype
    assert got.tobytes() == numpy_pairwise_sum(a, dtype).tobytes()


@pytest.mark.parametrize("dtype", SUM_DTYPES)
def test_numpy_reduction_order_on_every_length(dtype):
    """Lengths 0..300 cross every branch of the tree; 2^18 is a 512² plane."""
    rng = np.random.default_rng(7)
    for n in [*range(301), 65_537, 2**18]:
        a = (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 7, n)).astype(dtype)
        expected = numpy_pairwise_sum(a, dtype)
        assert np.add.reduce(a).tobytes() == expected.tobytes(), n


def test_numpy_reduction_edges():
    # add's identity 0.0 starts the sum, so a lone -0.0 sums to +0.0
    assert math.copysign(1.0, numpy_pairwise_sum([-0.0])) == 1.0
    assert math.copysign(1.0, np.add.reduce(np.array([-0.0]))) == 1.0
    assert numpy_pairwise_sum([]) == 0.0
    # 9 values: eight running sums, joined as a tree, then the tail
    vals = [0.1 * k for k in range(1, 10)]
    r = vals[:8]
    head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    assert numpy_pairwise_sum(vals) == head + vals[8] == np.add.reduce(np.array(vals))


# ---------------------------------------------------------------------------
# winner lookup

@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_bmu_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    grid = SomGrid(4, 3, rng.random((12, 3)))
    x = rng.random(3)
    index, distance = best_matching_unit(x, grid)
    expected_index, expected_distance = brute_force_bmu(x, grid.models)
    assert index == expected_index
    assert distance == pytest.approx(expected_distance, abs=1e-12)


def test_bmu_tie_goes_to_lowest_row_major_index():
    models = np.full((8, 3), 0.9)
    models[5] = [0.5, 0.0, 0.0]
    models[2] = [0.0, 0.5, 0.0]  # same distance to the origin as model 5
    grid = SomGrid(4, 2, models)
    index, distance = best_matching_unit(np.zeros(3), grid)
    assert index == 2
    assert distance == 0.5


# ---------------------------------------------------------------------------
# initialization

def test_initialize_draws_from_init_substream():
    image = random_image(21, 5, 7)
    pixels = pixel_vectors(image)
    seed = 909
    grid = initialize_grid(image, 4, 2, seed)
    stream_seed = splitmix64_sequence(seed, INIT_STREAM + 1)[INIT_STREAM]
    picks = [v % pixels.shape[0] for v in splitmix64_sequence(stream_seed, 8)]
    assert np.array_equal(grid.models, pixels[picks])


def test_initialize_single_color_image():
    image = RasterImage(np.full((1, 1, 3), 127.5))
    grid = initialize_grid(image, 4, 4, seed=5)
    assert np.all(grid.models == 0.5)


def test_initialize_rejects_bad_dimensions():
    with pytest.raises(InputError):
        initialize_grid(random_image(0), 0, 4, seed=1)


# ---------------------------------------------------------------------------
# single training steps

def test_zero_alpha_returns_bitwise_identical_grid():
    grid = small_grid(3)
    stepped = train_step(grid, np.array([0.9, 0.1, 0.4]), 0.0, 1.2)
    assert np.array_equal(
        stepped.models.view(np.uint64), grid.models.view(np.uint64)
    )


def test_step_moves_exactly_the_bubble_neighborhood():
    rng = np.random.default_rng(1234)
    for trial in range(40):
        width, height = rng.integers(1, 5, 2)
        grid = SomGrid(int(width), int(height),
                       rng.random((int(width) * int(height), 3)))
        x = rng.random(3)
        alpha = float(rng.uniform(0.05, 1.0))
        radius = float(rng.uniform(0.0, 3.0))
        winner, _ = best_matching_unit(x, grid)
        moved = grid_neighbors_within(grid.width, grid.height, winner, radius)
        stepped = train_step(grid, x, alpha, radius)
        for i in range(grid.model_count):
            if i in moved:
                expected = grid.models[i] + alpha * (x - grid.models[i])
                assert np.array_equal(stepped.models[i], np.clip(expected, 0, 1))
            else:
                assert np.array_equal(stepped.models[i], grid.models[i])


def test_small_radius_moves_only_the_winner():
    grid = small_grid(8)
    x = np.array([0.2, 0.8, 0.5])
    winner, _ = best_matching_unit(x, grid)
    stepped = train_step(grid, x, 0.5, 0.5)
    changed = [
        i
        for i in range(grid.model_count)
        if not np.array_equal(stepped.models[i], grid.models[i])
    ]
    assert changed == [winner]


def test_repeated_steps_follow_geometric_closed_form():
    grid = small_grid(11)
    x = np.array([0.3, 0.6, 0.9])
    alpha = 0.3
    winner, _ = best_matching_unit(x, grid)
    m0 = grid.models[winner].copy()
    current = grid
    for _ in range(60):
        current = train_step(current, x, alpha, 0.5)
    expected = x + (1.0 - alpha) ** 60 * (m0 - x)
    assert np.allclose(current.models[winner], expected, rtol=0, atol=1e-12)


def test_step_rejects_negative_alpha():
    with pytest.raises(InputError):
        train_step(small_grid(1), np.zeros(3), -0.1, 1.0)


def test_step_rejects_negative_radius():
    with pytest.raises(InputError, match="^radius_t must be non-negative$"):
        train_step(small_grid(1), np.zeros(3), 0.1, -0.5)


# ---------------------------------------------------------------------------
# full training

def test_train_is_deterministic_bitwise():
    image = random_image(77, 12, 12)
    params = TrainingParams(iterations=200, seed=99)
    a = fit_som(image, 3, 3, params)
    b = fit_som(image, 3, 3, params)
    assert np.array_equal(a.models.view(np.uint64), b.models.view(np.uint64))


def test_train_first_draw_comes_from_sample_substream():
    image = random_image(4, 6, 6)
    pixels = pixel_vectors(image)
    seed = 31
    grid = initialize_grid(image, 1, 1, seed)
    trained = train(grid, image, TrainingParams(
        learning_rate=1.0, iterations=1, seed=seed))
    stream_seed = splitmix64_sequence(seed, SAMPLE_STREAM + 1)[SAMPLE_STREAM]
    first_draw = splitmix64_sequence(stream_seed, 1)[0] % pixels.shape[0]
    # alpha 1 snaps the single model onto the drawn pixel
    assert np.array_equal(trained.models[0], pixels[first_draw])


@given(
    height=st.integers(1, 9),
    width=st.integers(1, 9),
    eight_bit=st.booleans(),
    grid_width=st.integers(1, 4),
    grid_height=st.integers(1, 4),
    iterations=st.integers(1, 40),
    decay_mode=st.sampled_from(som.DECAY_MODES),
    alpha=st.floats(0.0, 1.0),
    radius=st.floats(0.0, 3.0, exclude_min=True),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=80, deadline=None)
def test_train_matches_the_fold_of_train_step_bit_for_bit(
    height, width, eight_bit, grid_width, grid_height, iterations, decay_mode,
    alpha, radius, seed,
):
    rng = np.random.default_rng(seed)
    if eight_bit:
        image = RasterImage(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
    else:  # fractional samples, as a resampled frame holds
        image = RasterImage(rng.uniform(0.0, 255.0, (height, width, 3)))
    grid = SomGrid(grid_width, grid_height, rng.random((grid_width * grid_height, 3)))
    params = TrainingParams(
        learning_rate=alpha, neighborhood_radius=radius, iterations=iterations,
        seed=seed, decay_mode=decay_mode,
    )
    trained = train(grid, image, params)
    expected = train_by_steps(grid, image, params)
    assert np.array_equal(trained.models.view(np.uint64), expected.models.view(np.uint64))


def test_fit_som_builds_two_grids_and_no_per_pixel_buffer(monkeypatch):
    """One grid from initialize_grid and one from train, whatever the iteration
    count: the presentations share one models array, and each draws its pixel
    from the 8-bit planes, so no (N, 3) float copy of the frame is made."""
    image = RasterImage(
        np.random.default_rng(5).integers(0, 256, (512, 512, 3), dtype=np.uint8)
    )
    constructions = []
    check = SomGrid.__post_init__

    def counted(grid):
        constructions.append(grid.model_count)
        check(grid)

    monkeypatch.setattr(SomGrid, "__post_init__", counted)
    tracemalloc.start()
    try:
        fit_som(image, 4, 4, TrainingParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert constructions == [16, 16]
    assert peak < 1 << 20


def test_zero_learning_rate_train_is_identity():
    image = random_image(15)
    grid = initialize_grid(image, 3, 2, seed=7)
    trained = train(grid, image, TrainingParams(learning_rate=0.0, iterations=50))
    assert np.array_equal(trained.models.view(np.uint64), grid.models.view(np.uint64))


def test_two_color_image_trains_onto_both_colors():
    image = two_color_image((255, 0, 0), (0, 0, 255), 30, 30)
    params = TrainingParams(neighborhood_radius=0.5, iterations=400, seed=2)
    grid = fit_som(image, 2, 1, params)
    targets = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    # each color ends up within a short distance of some model
    for target in targets:
        nearest = min(np.linalg.norm(grid.models - target, axis=1))
        assert nearest < 0.05
    result = quantization_error(image, grid)
    assert result.qe < 0.05


def test_linear_decay_schedule_shrinks_to_zero():
    params = TrainingParams(iterations=10, decay_mode="linear")
    alpha_0, radius_0 = params.schedule(0)
    alpha_9, radius_9 = params.schedule(9)
    assert alpha_0 == params.learning_rate
    assert radius_0 == params.neighborhood_radius
    assert alpha_9 == pytest.approx(params.learning_rate * 0.1)
    assert radius_9 == pytest.approx(params.neighborhood_radius * 0.1)


def test_param_validation():
    with pytest.raises(InputError):
        TrainingParams(learning_rate=1.5)
    with pytest.raises(InputError):
        TrainingParams(neighborhood_radius=0.0)
    with pytest.raises(InputError):
        TrainingParams(iterations=0)
    with pytest.raises(InputError):
        TrainingParams(decay_mode="exponential")


def test_seed_must_fit_64_bits():
    """SplitMix64 keeps 64 bits of the seed, so 2**64 would alias seed 0."""
    assert substream_seed(0, SAMPLE_STREAM) == substream_seed(2**64, SAMPLE_STREAM)
    assert TrainingParams(seed=2**64 - 1).seed == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(InputError, match="seed must lie in"):
            TrainingParams(seed=seed)


# ---------------------------------------------------------------------------
# scoring

def test_qe_counts_partition_the_pixels():
    image = random_image(50, 9, 13)
    grid = small_grid(50, 4, 4)
    result = quantization_error(image, grid)
    assert result.assignment_counts.sum() == result.pixel_count == 9 * 13
    assert result.assignment_counts.shape == (16,)


def test_qe_zero_for_perfectly_represented_image():
    image = RasterImage(np.full((2, 2, 3), 127.5))
    grid = initialize_grid(image, 4, 4, seed=0)
    result = quantization_error(image, grid)
    assert result.qe == 0.0
    # every pixel ties across all 16 identical models; index 0 wins
    assert result.assignment_counts[0] == 4
    assert empty_model_count(result) == 15


def test_qe_hand_computed_tiny_case():
    image = RasterImage(np.array([[[255, 0, 0], [0, 0, 0]]], dtype=np.float64))
    models = np.array([[1.0, 0.0, 0.0], [0.25, 0.0, 0.0]])
    grid = SomGrid(2, 1, models)
    expected = (0.0 + 0.25) / 2
    result = quantization_error(image, grid)
    assert result.qe == pytest.approx(expected, abs=1e-15)
    assert list(result.assignment_counts) == [1, 1]


def test_single_pixel_change_shifts_qe_by_its_distance_delta():
    rng = np.random.default_rng(8)
    image = random_image(8, 7, 7)
    grid = small_grid(9, 3, 3)
    base = quantization_error(image, grid)
    pixels = image.pixels.copy()
    new_value = rng.integers(0, 256, 3).astype(np.float64)
    _, d_old = best_matching_unit(pixels[3, 4] / 255.0, grid)
    _, d_new = best_matching_unit(new_value / 255.0, grid)
    pixels[3, 4] = new_value
    changed = quantization_error(RasterImage(pixels), grid)
    expected = base.qe + (d_new - d_old) / base.pixel_count
    assert changed.qe == pytest.approx(expected, abs=1e-12)


def test_adding_models_never_increases_qe():
    rng = np.random.default_rng(77)
    image = random_image(13, 10, 10)
    for _ in range(20):
        base_models = rng.random((6, 3))
        extra_models = rng.random((3, 3))
        small = SomGrid(3, 2, base_models)
        big = SomGrid(3, 3, np.vstack([base_models, extra_models]))
        assert quantization_error(image, big).qe <= quantization_error(image, small).qe


def _assert_qe_matches_broadcast_oracle(image: RasterImage, grid: SomGrid):
    result = quantization_error(image, grid)
    qe, counts = broadcast_quantization_error(image.pixels, grid.models)
    assert result.qe.hex() == qe.hex()
    assert np.array_equal(result.assignment_counts, counts)
    assert result.pixel_count == image.pixel_count


@st.composite
def images_and_grids(draw):
    """Random images and grids; coarse sample lattices and a small model
    pool make exact distance ties and duplicate models common."""
    height = draw(st.integers(1, 12))
    width = draw(st.integers(1, 40))
    gw, gh = draw(st.sampled_from([(1, 1), (2, 1), (3, 2), (4, 4), (8, 8)]))
    levels = draw(st.sampled_from([0, 3, 17, 256]))  # 0: fractional samples
    pool_size = draw(st.integers(1, gw * gh))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if levels:
        step = 255.0 / (levels - 1) if levels > 1 else 0.0
        pixels = np.floor(rng.integers(0, levels, (height, width, 3)) * step)
        pool = np.floor(rng.integers(0, levels, (pool_size, 3)) * step) / 255.0
    else:
        pixels = rng.random((height, width, 3)) * 255.0
        pool = rng.random((pool_size, 3))
    models = pool[rng.integers(0, pool_size, gw * gh)]
    return RasterImage(pixels), SomGrid(gw, gh, models)


@given(images_and_grids())
@settings(max_examples=150, deadline=None)
def test_qe_is_bit_identical_to_broadcast_oracle(case):
    _assert_qe_matches_broadcast_oracle(*case)


QE_EDGE_CASES = pytest.mark.parametrize(
    "height,width,gw,gh,duplicates",
    [(1, 1, 1, 1, False), (1, 97, 1, 1, False), (1, 97, 8, 8, True),
     (31, 29, 8, 8, False), (31, 29, 8, 8, True), (5, 7, 4, 4, True)],
)


def _edge_case(height, width, gw, gh, duplicates):
    rng = np.random.default_rng(height * 1000 + width + gw)
    image = random_image(width + height, height, width)
    models = rng.random((gw * gh, 3))
    if duplicates:
        models = models[rng.integers(0, 3, gw * gh)]
    return image, SomGrid(gw, gh, models)


@QE_EDGE_CASES
def test_qe_oracle_edge_cases(height, width, gw, gh, duplicates):
    _assert_qe_matches_broadcast_oracle(*_edge_case(height, width, gw, gh, duplicates))


# block sizes that split every test image, none a divisor of most pixel counts
SCORE_BLOCKS = pytest.mark.parametrize("block", [1, 7, 64])


@SCORE_BLOCKS
@given(case=images_and_grids())
@settings(max_examples=30, deadline=None)
def test_qe_across_block_edges_is_bit_identical_to_broadcast_oracle(block, case):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(som, "_SCORE_BLOCK", block)
        _assert_qe_matches_broadcast_oracle(*case)


@SCORE_BLOCKS
@QE_EDGE_CASES
def test_qe_oracle_edge_cases_across_block_edges(
    monkeypatch, block, height, width, gw, gh, duplicates
):
    monkeypatch.setattr(som, "_SCORE_BLOCK", block)
    _assert_qe_matches_broadcast_oracle(*_edge_case(height, width, gw, gh, duplicates))


@SCORE_BLOCKS
def test_qe_ties_across_block_edges_go_to_the_lowest_index(monkeypatch, block):
    # 101 black or white pixels; black is matched exactly by models 0 and 3,
    # white by 2 and 5, so every pixel ties and the lower index must win it
    # in every block
    monkeypatch.setattr(som, "_SCORE_BLOCK", block)
    pixels = np.zeros((1, 101, 3))
    pixels[0, 1::3] = 255.0
    models = np.array([[0, 0, 0], [0.5, 0.5, 0.5], [1, 1, 1],
                       [0, 0, 0], [0.25, 0.5, 1], [1, 1, 1]], dtype=np.float64)
    image, grid = RasterImage(pixels), SomGrid(3, 2, models)
    result = quantization_error(image, grid)
    assert result.qe == 0.0
    assert list(result.assignment_counts) == [67, 0, 34, 0, 0, 0]
    _assert_qe_matches_broadcast_oracle(image, grid)


def test_qe_traced_peak_stays_linear_in_pixels():
    # 256x256 pixels against 64 models: an (N, K, 3) float64 block would
    # be 100 MB.  Scoring holds one N-length float64 array and the fixed
    # block scratch; full-length planes or masks would pass 8 N floats
    image = random_image(3, 256, 256)
    grid = small_grid(3, 8, 8)
    tracemalloc.start()
    try:
        quantization_error(image, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * image.pixel_count * 8


# ---------------------------------------------------------------------------
# serialization

def test_grid_text_round_trip_is_bitwise():
    rng = np.random.default_rng(3)
    models = rng.random((12, 3))
    models[0] = [1 / 3, 2 / 3, 1e-17]
    grid = SomGrid(4, 3, models)
    restored = grid_from_text(grid_to_text(grid))
    assert restored.width == 4 and restored.height == 3
    assert np.array_equal(restored.models.view(np.uint64), grid.models.view(np.uint64))


def test_grid_file_round_trip(tmp_path):
    from somqe import load_grid, save_grid

    grid = small_grid(44, 5, 2)
    path = tmp_path / "grid.txt"
    save_grid(grid, path)
    restored = load_grid(path)
    assert np.array_equal(restored.models.view(np.uint64), grid.models.view(np.uint64))


def test_grid_text_header_line_format():
    grid = small_grid(5, 4, 4)
    first = grid_to_text(grid).splitlines()[0]
    assert first == "somqe-grid v1 4 4"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "somgrid v1 2 2\n",
        "somqe-grid v2 2 2\n",
        "somqe-grid v1 2\n",
        "somqe-grid v1 2 two\n",
        "somqe-grid v1 1_0 1\n",
        "somqe-grid v1 +1 1\n",
    ],
)
def test_grid_text_rejects_bad_headers(text):
    with pytest.raises(InputError, match="malformed grid header"):
        grid_from_text(text)


def test_grid_text_rejects_wrong_model_count():
    with pytest.raises(InputError, match="promises"):
        grid_from_text("somqe-grid v1 2 2\n0 0 0\n")


def test_grid_text_of_zero_models_rejected():
    """A 0 x 1 header promises an empty body, and no map has no models."""
    with pytest.raises(InputError, match="^grid dimensions must be positive$"):
        grid_from_text("somqe-grid v1 0 1\n")


def test_grid_text_errors_name_the_file_line():
    """Blank lines count: the bad model is on file line 5, body line 2."""
    for component in ("x", "0.2_5", "nan"):  # float() reads 0.2_5 as 0.25
        with pytest.raises(InputError, match="grid line 5: non-numeric component"):
            grid_from_text(f"somqe-grid v1 2 1\n\n0 0 0\n\n0 {component} 0\n")
    with pytest.raises(InputError, match="grid line 4: expected 3 components"):
        grid_from_text("\nsomqe-grid v1 2 1\n0 0 0\n0 0\n")


def test_grid_text_skips_comment_lines_and_splits_at_newlines_only():
    """A grid file follows the blank/'#' line rule of every other text input."""
    grid = grid_from_text("# a 1x1 map\nsomqe-grid v1 1 1\n  # its model\n0.5 0.25 1\n")
    assert grid.models.tolist() == [[0.5, 0.25, 1.0]]
    with pytest.raises(InputError, match="grid line 4: expected 3 components"):
        grid_from_text("somqe-grid v1 2 1\n# first\n0 0 0\n0 0\n")
    with pytest.raises(InputError, match="malformed grid header"):  # a form feed ends no line
        grid_from_text("somqe-grid v1 1 1\x0c0 0 0\n")


def test_grid_text_rejects_out_of_range_values():
    with pytest.raises(InputError, match="lie in"):
        grid_from_text("somqe-grid v1 1 1\n0 0 1.5\n")


@pytest.mark.parametrize("models", [np.zeros((3, 3)), np.zeros((4, 2)), np.zeros(12)])
def test_grid_refuses_a_model_array_of_the_wrong_shape(models):
    with pytest.raises(InputError, match=r"^model array must have shape \(4, 3\)$"):
        SomGrid(2, 2, models)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_refuses_non_finite_model_values(bad):
    models = np.full((4, 3), 0.5)
    models[2, 1] = bad
    with pytest.raises(InputError, match="^model values must be finite$"):
        SomGrid(2, 2, models)
