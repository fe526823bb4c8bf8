import itertools

import pytest

import workloads
from amprob.config import parse_config

N_ITEMS = 40


def first(workload, seed, n=N_ITEMS):
    return list(itertools.islice(workloads.operations(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a = "".join(workloads.serialize(item) for item in first(workload, 7))
    b = "".join(workloads.serialize(item) for item in first(workload, 7))
    c = "".join(workloads.serialize(item) for item in first(workload, 8))
    assert a == b
    assert a != c


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.operations("nope", 1)


@pytest.mark.parametrize("workload", ["profile", "sorkin", "sampling"])
def test_config_texts_are_valid_configs(workload):
    for spec in first(workload, 3):
        config = parse_config(workloads.render_config(spec))
        assert config.experiment == spec["experiment"]


def test_profile_sizes_stay_in_range_and_under_the_cell_cap():
    lo_slits, hi_slits = workloads.PROFILE_SLITS
    for spec in first("profile", 11, 200):
        n_slits = len(spec["slit_offsets_um"])
        n_open = len(spec.get("open_slits", range(n_slits)))
        assert lo_slits <= n_open <= n_slits <= hi_slits
        assert spec["n_points"] <= workloads.PROFILE_POINTS[1]
        assert n_open * spec["n_points"] <= workloads.PROFILE_MAX_CELLS


def test_sizes_cover_their_range_evenly_in_any_prefix():
    # The Weyl sizes put close to a quarter of any prefix in each quarter
    # of the (log) range, whatever the seed; independent draws would
    # often miss by more.
    lo, hi = workloads.SORKIN_POINTS
    cuts = [lo * (hi / lo) ** (q / 4) for q in range(5)]
    for seed in (1, 2, 3):
        sizes = [s["n_points"] for s in first("sorkin", seed, 60)
                 if s["experiment"] == "sorkin"]
        counts = [sum(a <= n < b for n in sizes)
                  for a, b in zip(cuts, cuts[1:])]
        assert max(counts) - min(counts) <= 5, counts


def test_sorkin_mix_has_about_one_delayed_config_in_ten():
    kinds = [s["experiment"] for s in first("sorkin", 5, 200)]
    assert 15 <= kinds.count("delayed") <= 25


def test_space_blocks_call_every_library_function():
    fns = {call["fn"] for block in first("spaces", 2, 10)
           for call in block["calls"]}
    assert {"classical_space", "probabilities", "outcome_probability",
            "event_probability", "normalize", "collapse",
            "union_decomposition", "combine_exclusive",
            "combine_independent", "interference_term", "born_probability",
            "conjugate"} <= fns
    for block in first("spaces", 2, 10):
        lo, hi = workloads.SPACE_OUTCOMES
        assert lo <= block["n"] <= hi
