"""Configuration text format: parsing, validation, canonical echo."""

import re

import pytest

from sigmak import ConfigError, RunConfig, parse_config_file, parse_config_text
from sigmak.config import MEMORY_BUDGET_BYTES, peak_bytes, sample_bytes
from sigmak.report import KNOWN_CHECKS


def test_defaults_describe_the_canonical_case_a_run():
    cfg = RunConfig()
    assert (cfg.case, cfg.n, cfg.k, cfg.N) == ("A", 3, 3, 16)
    assert cfg.alpha == "-0.1" and cfg.f == "0.7"
    assert cfg.background == {"(1,1)": "-1", "(2,2)": "-1", "(3,3)": "-1"}
    assert cfg.background_key == "background.ric0"
    cfg.validate()
    # case C reads schouten0, canonically +identity
    cfg = RunConfig(case="C")
    assert cfg.background == {"(1,1)": "1", "(2,2)": "1", "(3,3)": "1"}
    assert cfg.background_key == "background.schouten0"


def test_text_round_trip_is_exact():
    cfg = RunConfig()
    text = cfg.to_text()
    again = parse_config_text(text)
    assert again == cfg
    assert again.to_text() == text


def test_round_trip_preserves_overrides():
    text = RunConfig(case="B", alpha="-1/3", f="0", seed=7,
                     dt_init=0.05, checks="cone_margin").to_text()
    cfg = parse_config_text(text)
    assert cfg.case == "B"
    assert cfg.alpha == "-1/3"
    assert cfg.seed == 7
    assert cfg.dt_init == 0.05
    assert cfg.checks == "cone_margin"
    assert cfg.to_text() == text


def test_comments_and_blank_lines_are_skipped():
    cfg = parse_config_text("# leading comment\n\n  seed = 3\n\n# done\n")
    assert cfg.seed == 3
    assert cfg.case == "A"


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'spec\.m'"):
        parse_config_text("seed = 1\nspec.m = 4\n")


def test_duplicate_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3: duplicate key 'seed'"):
        parse_config_text("seed = 1\nspec.n = 3\nseed = 2\n")


def test_malformed_lines_report_line_numbers():
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="line 1: cannot parse value"):
        parse_config_text("seed = one\n")
    with pytest.raises(ConfigError, match="line 1: unterminated string"):
        parse_config_text('spec.case = "A\n')
    with pytest.raises(ConfigError, match="line 1: embedded quote"):
        parse_config_text('spec.alpha = "a"b"\n')


def test_value_types_are_enforced_per_key():
    with pytest.raises(ConfigError, match="seed wants an integer"):
        parse_config_text("seed = 1.5\n")
    with pytest.raises(ConfigError, match="seed wants an integer"):
        parse_config_text("seed = true\n")
    with pytest.raises(ConfigError, match="spec.alpha wants a quoted string"):
        parse_config_text("spec.alpha = -0.1\n")
    with pytest.raises(ConfigError, match="solver.dt_init wants a number"):
        parse_config_text('solver.dt_init = "0.1"\n')
    with pytest.raises(ConfigError, match="quoted expression strings"):
        parse_config_text("background.ric0.(1,1) = -1\n")


def test_component_keys_canonicalize_to_upper_triangle():
    cfg = parse_config_text('background.ric0.(2,1) = "0.5"\n')
    assert cfg.background == {"(1,2)": "0.5"}


def test_symmetric_duplicate_components_rejected():
    text = ('background.ric0.(1,2) = "0.5"\n'
            'background.ric0.(2,1) = "0.5"\n')
    with pytest.raises(ConfigError, match=r"\(1,2\) given twice"):
        parse_config_text(text)


def test_explicit_components_replace_the_default_background():
    cfg = parse_config_text('background.ric0.(1,1) = "-2"\n')
    assert cfg.background == {"(1,1)": "-2"}
    # the echo writes only the tensor the case reads
    assert "schouten0" not in cfg.to_text()
    cfg = parse_config_text('background.schouten0.(2,2) = "2"\n'
                            'spec.case = "C"\n')
    assert cfg.background == {"(2,2)": "2"}
    assert "ric0" not in cfg.to_text()


def test_components_of_the_unread_tensor_are_rejected():
    """A key of the tensor the case does not read is an error naming the
    key and the case, wherever the case line stands."""
    for text, message in (
            ('background.schouten0.(1,1) = "1"\n',
             "line 1: background.schouten0.(1,1) is not read in case A"),
            ('spec.case = "B"\nbackground.schouten0.(1,1) = "1"\n',
             "line 2: background.schouten0.(1,1) is not read in case B"),
            ('background.ric0.(2,2) = "log(sin(x2))"\nspec.case = "C"\n',
             "line 1: background.ric0.(2,2) is not read in case C")):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_text(text)


def test_component_range_follows_spec_n():
    cfg = parse_config_text('spec.n = 4\nspec.k = 3\nbackground.ric0.(4,4) = "-1"\n')
    assert cfg.background == {"(4,4)": "-1"}
    with pytest.raises(ConfigError, match=r"out of range for n=3"):
        parse_config_text('background.ric0.(4,4) = "-1"\n')


def test_validate_rejects_out_of_range_knobs():
    cases = [
        (dict(case="D"), "spec.case"),
        (dict(n=7, k=3), "spec.n"),
        (dict(n=4, k=2), "spec.k"),
        (dict(k=4), "spec.k"),
        (dict(N=4), "spec.N"),
        (dict(seed=-1), "seed"),
        (dict(check_samples=0), "check.samples"),
        (dict(ceiling_sup_u=0.0), "monitor.ceiling_sup_u"),
        (dict(ceiling_sup_u=float("nan")),
         "monitor.ceiling_sup_u must be finite and positive"),
        (dict(ceiling_sup_hess_u=float("inf")),
         "monitor.ceiling_sup_hess_u must be finite and positive"),
        (dict(newton_tol=float("nan")), "newton_tol must be finite"),
        (dict(newton_tol=float("inf")), "newton_tol must be finite"),
        (dict(dt_init=0.5, dt_max=0.25), "solver schedule"),
        (dict(dt_max=0.25), "solver schedule"),
        (dict(alpha="sin(x1"), "spec.alpha"),
        (dict(f="x9"), "spec.f"),
        (dict(u_star="1 +"), "verify.u_star"),
        (dict(checks="no_such_check"), "unknown check"),
        (dict(checks="cone_margin,cone_margin"), "listed twice"),
    ]
    for overrides, needle in cases:
        cfg = RunConfig(**overrides)
        with pytest.raises(ConfigError, match=needle):
            cfg.validate()


def test_validate_rejects_bad_background_expressions():
    cfg = RunConfig(background={"(1,1)": "sin("})
    with pytest.raises(ConfigError, match=r"background\.ric0\.\(1,1\)"):
        cfg.validate()
    cfg = RunConfig(case="C", background={"(0,1)": "1"})
    with pytest.raises(ConfigError, match=r"background\.schouten0"):
        cfg.validate()


def test_derived_objects_reflect_the_knobs():
    cfg = RunConfig(n=4, k=3, N=8, case="A", alpha="-0.2", f="0.5")
    g = cfg.grid()
    assert (g.n, g.N) == (4, 8)
    spec = cfg.problem()
    assert (spec.case, spec.n, spec.k) == ("A", 4, 3)
    sched = cfg.schedule()
    assert sched.dt_init == cfg.dt_init
    assert sched.newton_max_iters == cfg.newton_max_iters


def test_checks_mapping_pairs_names_with_ceilings():
    cfg = RunConfig(ceiling_sup_u=7.5)
    mapping = cfg.checks_mapping()
    assert list(mapping) == list(KNOWN_CHECKS)
    assert mapping["bounded_sup_u"] == 7.5
    assert mapping["cone_margin"] is None
    assert mapping["ellipticity"] is None

    subset = RunConfig(checks=" cone_margin , ellipticity ")
    assert list(subset.checks_mapping()) == ["cone_margin", "ellipticity"]


def test_parse_config_file_round_trip(tmp_path):
    path = tmp_path / "config.txt"
    cfg = RunConfig(case="C", f="1", alpha="-0.05", N=8)
    path.write_text(cfg.to_text(), encoding="utf-8")
    assert parse_config_file(path) == cfg


def test_validate_rejects_grids_over_the_memory_budget():
    # One (..., n, n) stack alone is about 2.1 GB at n=4, N=64; n=6, N=128
    # has 4.4e12 nodes.
    for n, k, N in ((4, 3, 64), (6, 3, 128)):
        cfg = RunConfig(n=n, k=k, N=N)
        assert peak_bytes(n, N) > MEMORY_BUDGET_BYTES
        with pytest.raises(ConfigError, match="memory budget"):
            cfg.validate()


def test_verify_at_n5_fits_the_memory_budget():
    """The n = 5, k = 3 convergence study solves at N = 8 and 16: both
    grids pass the unchanged budget, with the default check.samples."""
    cfg = RunConfig(n=5, k=3, N=8)
    cfg.validate()
    cfg.check_memory(16)
    assert MEMORY_BUDGET_BYTES == 2 * 2 ** 30


def test_validate_accepts_every_grid_the_suite_demos_and_benchmark_run():
    # (n, k, N, doubled): the largest grids of the tests, the README config,
    # the demos' n=3 grids and the benchmark's three workloads; verify
    # (doubled) also solves at 2N.
    used = [(3, 3, 16, True), (3, 3, 24, False), (3, 3, 32, False),
            (3, 3, 64, False), (4, 3, 8, False), (4, 3, 16, False),
            (5, 4, 8, False), (6, 3, 8, False)]
    for n, k, N, doubled in used:
        cfg = RunConfig(n=n, k=k, N=N)
        cfg.validate()
        if doubled:
            cfg.check_memory(2 * N)


def test_validate_rejects_check_samples_over_the_memory_budget():
    # 48 n + 64 bytes a sample: 20 million at n = 3 need about 3.9 GiB
    cfg = RunConfig(check_samples=20_000_000)
    assert cfg.check_samples * sample_bytes(3) > MEMORY_BUDGET_BYTES
    with pytest.raises(ConfigError, match="check.samples = 20000000"):
        cfg.validate()
    RunConfig(check_samples=1_000_000).validate()
