"""Configuration parsing, validation, typed overrides, and the canonical
echo round trip."""

import re

import pytest

from taxonet.config import (
    PipelineConfig,
    build_config,
    config_to_text,
    load_config,
    parse_config_text,
    parse_rule,
)
from taxonet.consensus import BinarizationRule
from taxonet.errors import ConfigError
from taxonet.methods import METHOD_ORDER, default_params


class TestParseText:
    def test_basic_key_values_with_comments(self):
        text = "\n".join(
            [
                "# a comment",
                "input = counts.tsv",
                "",
                "seed = 7",
                "sparcc.alpha = 0.2",
            ]
        )
        assert parse_config_text(text) == {
            "input": "counts.tsv",
            "seed": "7",
            "sparcc.alpha": "0.2",
        }

    def test_duplicate_key_reports_line_number(self):
        with pytest.raises(ConfigError, match=r":3: duplicate key 'seed'"):
            parse_config_text("seed = 1\n# x\nseed = 2\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("just some words\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty key or value"):
            parse_config_text("seed =\n")


class TestBuildConfig:
    def test_empty_mapping_enables_all_methods_at_defaults(self):
        cfg = build_config({})
        assert cfg.methods == METHOD_ORDER
        assert cfg.seed == 0
        assert cfg.jobs == 1
        assert cfg.orientation == "samples_in_rows"
        assert cfg.params_for("sparcc") == default_params("sparcc")
        assert cfg.params_for("pearson") == default_params("pearson")

    def test_pipeline_flips_abundance_methods_to_count_input(self):
        cfg = build_config({})
        # the abundance methods' defaults already take counts (pseudo 0.5),
        # and the pipeline runs the defaults unchanged
        for m in ("gcoda", "cclasso"):
            assert cfg.params_for(m) == default_params(m)
            assert cfg.params_for(m).pseudo == 0.5

    def test_method_subset_is_reordered_canonically(self):
        cfg = build_config({"methods": "sparcc,pearson,gcoda"})
        assert cfg.methods == ("pearson", "sparcc", "gcoda")

    def test_methods_all_keyword(self):
        assert build_config({"methods": "all"}).methods == METHOD_ORDER

    def test_single_method_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            build_config({"methods": "pearson"})

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown methods: lasso"):
            build_config({"methods": "pearson,lasso"})

    def test_duplicate_method_rejected(self):
        with pytest.raises(ConfigError, match="duplicate method"):
            build_config({"methods": "pearson,pearson"})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            build_config({"verbosity": "3"})

    def test_unknown_method_parameter_lists_known_fields(self):
        with pytest.raises(ConfigError, match="has no parameter 'imaxx'.*alpha"):
            build_config({"sparcc.imaxx": "5"})

    @pytest.mark.parametrize("key", ["rmethod", "quantitative", "lambdaseq"])
    def test_removed_spring_options_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"spring has no parameter '{key}'"):
            build_config({f"spring.{key}": "approx"})

    @pytest.mark.parametrize(
        "method, key",
        [
            ("spieceasi_mb", "seed"),
            ("spieceasi_glasso", "seed"),
            ("spring", "seed"),
            ("cclasso", "seed"),
            ("gcoda", "counts"),
            ("cclasso", "counts"),
        ],
    )
    def test_removed_seed_and_counts_options_are_unknown(self, method, key):
        # seeds derive from the master seed; counts=False is pseudo = 0
        with pytest.raises(ConfigError, match=f"{method} has no parameter '{key}'"):
            build_config({f"{method}.{key}": "5"})

    def test_typed_overrides(self):
        cfg = build_config(
            {
                "sparcc.alpha": "0.2",
                "sparcc.imax": "5",
                "gcoda.pseudo": "0.0",
                "spieceasi_mb.nlambda": "20",
                "cclasso.lam_int": "0.001,0.5",
            }
        )
        sparcc = cfg.params_for("sparcc")
        assert sparcc.alpha == 0.2 and isinstance(sparcc.alpha, float)
        assert sparcc.imax == 5 and isinstance(sparcc.imax, int)
        assert cfg.params_for("gcoda").pseudo == 0.0
        assert cfg.params_for("spieceasi_mb").nlambda == 20
        assert cfg.params_for("cclasso").lam_int == (0.001, 0.5)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("filter.min_prevalence", "abc"),
            ("filter.min_total", "1,2"),
            ("spieceasi_mb.nlambda", "2.5"),
            ("gcoda.lambda_min_ratio", "small"),
            ("cclasso.lam_int", "0.5"),
            ("pearson.transform", "7"),
            ("cmimn.quantitative", "3"),
            ("spring.rule", "5"),
            ("sparcc.alpha", "2"),
            ("cmimn.q1", "0.99"),
            ("binarize.pearson", "abs_threshold:2"),
        ],
    )
    def test_value_not_of_its_field_type_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(key)):
            build_config({key: value})

    def test_values_take_the_type_their_field_declares(self):
        cfg = build_config({"gcoda.pseudo": "0", "spieceasi_mb.rep_num": "none"})
        pseudo = cfg.params_for("gcoda").pseudo
        assert pseudo == 0.0 and isinstance(pseudo, float)
        assert cfg.params_for("spieceasi_mb").rep_num is None

    def test_untouched_fields_keep_their_defaults(self):
        cfg = build_config({"sparcc.alpha": "0.2"})
        assert cfg.params_for("sparcc").imax == default_params("sparcc").imax
        assert cfg.params_for("sparcc").kmax == default_params("sparcc").kmax

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            build_config({"seed": "1.5"})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            build_config({"seed": "-1"})

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_min_total_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ConfigError, match="filter.min_total must be finite"):
            build_config({"filter.min_total": value})

    @pytest.mark.parametrize("pseudo_first", [False, True])
    @pytest.mark.parametrize("transform", ["clr", "log"])
    def test_correlation_pseudo_is_checked_when_the_transform_uses_it(
        self, transform, pseudo_first
    ):
        raw = {"pearson.transform": transform, "pearson.pseudo": "nan"}
        if pseudo_first:
            raw = dict(reversed(raw.items()))
        with pytest.raises(ConfigError, match="pearson.pseudo: pseudo-count must be finite"):
            build_config(raw)

    @pytest.mark.parametrize("pseudo_first", [False, True])
    @pytest.mark.parametrize("transform", ["mclr", "raw"])
    def test_correlation_pseudo_is_ignored_when_the_transform_adds_none(
        self, transform, pseudo_first
    ):
        raw = {"spearman.transform": transform, "spearman.pseudo": "-1"}
        if pseudo_first:
            raw = dict(reversed(raw.items()))
        cfg = build_config(raw)
        assert cfg.params_for("spearman").pseudo == -1.0

    def test_orientation_validated(self):
        with pytest.raises(ConfigError, match="orientation"):
            build_config({"orientation": "sideways"})

    def test_prevalence_bounds(self):
        with pytest.raises(ConfigError, match=r"min_prevalence"):
            build_config({"filter.min_prevalence": "1.2"})

    def test_binarize_override(self):
        cfg = build_config({"binarize.pearson": "top_quantile:0.9"})
        assert cfg.rule_for("pearson") == BinarizationRule("top_quantile", q=0.9)
        # other methods keep their registry defaults
        assert cfg.rule_for("spearman") == BinarizationRule("abs_threshold", threshold=0.3)
        assert cfg.rule_for("gcoda") == BinarizationRule("native_sparse")

    def test_binarize_for_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown method"):
            build_config({"binarize.ridge": "abs_threshold:0.3"})

    def test_direct_constructor_validates_too(self):
        with pytest.raises(ConfigError, match="at least 2"):
            PipelineConfig(methods=("pearson",))


class TestParseRule:
    def test_each_syntax(self):
        assert parse_rule("native_sparse") == BinarizationRule("native_sparse")
        assert parse_rule("abs_threshold:0.4") == BinarizationRule(
            "abs_threshold", threshold=0.4
        )
        assert parse_rule("top_quantile:0.8") == BinarizationRule("top_quantile", q=0.8)
        assert parse_rule("pvalue:0.05") == BinarizationRule("pvalue", alpha=0.05)
        assert parse_rule("pvalue:0.05+abs:0.3") == BinarizationRule(
            "pvalue", alpha=0.05, threshold=0.3
        )

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="unknown binarization rule"):
            parse_rule("zscore:2.0")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="bad number"):
            parse_rule("abs_threshold:high")

    def test_suffix_only_allowed_on_pvalue(self):
        with pytest.raises(ConfigError, match="unexpected rule suffix"):
            parse_rule("abs_threshold:0.3+abs:0.2")

    def test_unknown_suffix_rejected(self):
        with pytest.raises(ConfigError, match="unknown rule suffix"):
            parse_rule("pvalue:0.05+quantile:0.9")


class TestEchoRoundTrip:
    def check_equivalent(self, cfg):
        text = config_to_text(cfg)
        back = build_config(parse_config_text(text))
        assert back.methods == cfg.methods
        assert back.seed == cfg.seed
        assert back.orientation == cfg.orientation
        assert back.min_prevalence == cfg.min_prevalence
        for m in cfg.methods:
            assert back.params_for(m) == cfg.params_for(m), m
            assert back.rule_for(m) == cfg.rule_for(m), m

    def test_default_config_round_trips(self):
        self.check_equivalent(build_config({}))

    def test_overridden_config_round_trips(self):
        cfg = build_config(
            {
                "methods": "pearson,sparcc,cclasso,cmimn",
                "seed": "11",
                "filter.min_prevalence": "0.25",
                "sparcc.alpha": "0.05",
                "cclasso.n_boot": "10",
                "binarize.pearson": "top_quantile:0.85",
                "binarize.sparcc": "abs_threshold:0.45",
            }
        )
        self.check_equivalent(cfg)

    def test_echo_spells_out_every_enabled_method(self):
        cfg = build_config({"methods": "pearson,gcoda"})
        text = config_to_text(cfg)
        assert "pearson.transform = clr" in text
        assert "gcoda.pseudo = 0.5" in text
        assert "binarize.gcoda = native_sparse" in text
        # disabled methods are absent
        assert "sparcc." not in text


class TestLoadConfig:
    def test_reads_a_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("methods = pearson,sparcc\nseed = 3\n")
        cfg = load_config(path)
        assert cfg.methods == ("pearson", "sparcc")
        assert cfg.seed == 3

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.conf")
