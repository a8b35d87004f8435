"""Pipeline configuration: plain-text dotted key=value files.

Example::

    input = counts.tsv
    orientation = samples_in_rows
    methods = pearson,sparcc,spring
    seed = 7
    filter.min_prevalence = 0.1
    sparcc.alpha = 0.1
    binarize.sparcc = abs_threshold:0.4

Every method parameter is addressable as ``<method>.<field>``.  Unknown
keys, unknown methods, and malformed values are hard errors.  A method runs
at its documented defaults (:func:`taxonet.methods.default_params`) except
for the fields the config sets.  Per-method seeds are not parameters: they
all derive from the master ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any

from .consensus import BinarizationRule
from .errors import ConfigError
from .methods import METHOD_ORDER, default_params, default_rule

ORIENTATIONS = ("samples_in_rows", "taxa_in_rows")


@dataclass
class PipelineConfig:
    input_path: str | None = None
    orientation: str = "samples_in_rows"
    output_dir: str = "taxonet_out"
    seed: int = 0
    jobs: int = 1
    methods: tuple[str, ...] = METHOD_ORDER
    min_prevalence: float = 0.0
    min_total: float = 0.0
    method_params: dict[str, Any] = field(default_factory=dict)
    rules: dict[str, BinarizationRule] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = [m for m in self.methods if m not in METHOD_ORDER]
        if unknown:
            raise ConfigError(f"unknown methods: {', '.join(unknown)}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate method in the enabled set")
        if len(self.methods) < 2:
            raise ConfigError(
                f"a consensus needs at least 2 enabled methods, got {len(self.methods)}"
            )
        # canonical roster order, independent of how the user listed them
        self.methods = tuple(m for m in METHOD_ORDER if m in self.methods)
        if self.orientation not in ORIENTATIONS:
            raise ConfigError(f"orientation must be one of {ORIENTATIONS}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if not (0.0 <= self.min_prevalence <= 1.0):
            raise ConfigError("filter.min_prevalence must lie in [0, 1]")
        if self.min_total < 0:
            raise ConfigError("filter.min_total must be nonnegative")
        for m in self.method_params:
            if m not in METHOD_ORDER:
                raise ConfigError(f"parameters given for unknown method {m!r}")
        for m in self.rules:
            if m not in METHOD_ORDER:
                raise ConfigError(f"binarization rule given for unknown method {m!r}")

    def params_for(self, method: str):
        if method in self.method_params:
            return self.method_params[method]
        return default_params(method)

    def rule_for(self, method: str) -> BinarizationRule:
        return self.rules.get(method, default_rule(method))


def _parse_scalar(raw: str, key: str):
    text = raw.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    if "," in text:
        try:
            parts = tuple(float(p) for p in text.split(","))
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {text!r} as a number list") from exc
        return parts
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_rule(raw: str) -> BinarizationRule:
    """Rule syntax: ``native_sparse``, ``abs_threshold:V``,
    ``top_quantile:Q``, ``pvalue:A``, or ``pvalue:A+abs:V``."""
    text = raw.strip()
    if text == "native_sparse":
        return BinarizationRule(kind="native_sparse")
    parts = text.split("+")
    kind, _, arg = parts[0].partition(":")
    try:
        if kind == "abs_threshold":
            if len(parts) > 1:
                raise ConfigError(f"unexpected rule suffix in {raw!r}")
            return BinarizationRule(kind="abs_threshold", threshold=float(arg))
        if kind == "top_quantile":
            if len(parts) > 1:
                raise ConfigError(f"unexpected rule suffix in {raw!r}")
            return BinarizationRule(kind="top_quantile", q=float(arg))
        if kind == "pvalue":
            threshold = None
            if len(parts) == 2:
                suffix_kind, _, suffix_arg = parts[1].partition(":")
                if suffix_kind != "abs":
                    raise ConfigError(f"unknown rule suffix {parts[1]!r}")
                threshold = float(suffix_arg)
            elif len(parts) > 2:
                raise ConfigError(f"too many rule parts in {raw!r}")
            return BinarizationRule(kind="pvalue", alpha=float(arg), threshold=threshold)
    except ValueError as exc:
        raise ConfigError(f"cannot parse rule {raw!r}: bad number") from exc
    raise ConfigError(f"unknown binarization rule {raw!r}")


def _rule_to_text(rule: BinarizationRule) -> str:
    if rule.kind == "native_sparse":
        return "native_sparse"
    if rule.kind == "abs_threshold":
        return f"abs_threshold:{rule.threshold!r}"
    if rule.kind == "top_quantile":
        return f"top_quantile:{rule.q!r}"
    if rule.threshold is not None:
        return f"pvalue:{rule.alpha!r}+abs:{rule.threshold!r}"
    return f"pvalue:{rule.alpha!r}"


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Raw key -> value mapping; duplicate keys are errors."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def build_config(raw: dict[str, str]) -> PipelineConfig:
    """Validate and type a raw key->value mapping into a PipelineConfig."""
    kwargs: dict[str, Any] = {}
    method_params: dict[str, Any] = {}
    rules: dict[str, BinarizationRule] = {}

    field_names = {
        m: {f.name for f in fields(type(default_params(m)))} for m in METHOD_ORDER
    }

    for key, value in raw.items():
        if key == "input":
            kwargs["input_path"] = value
        elif key == "orientation":
            kwargs["orientation"] = value
        elif key == "output":
            kwargs["output_dir"] = value
        elif key == "seed":
            v = _parse_scalar(value, key)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"seed must be an integer, got {value!r}")
            kwargs["seed"] = v
        elif key == "jobs":
            v = _parse_scalar(value, key)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"jobs must be an integer, got {value!r}")
            kwargs["jobs"] = v
        elif key == "methods":
            if value.strip() == "all":
                kwargs["methods"] = METHOD_ORDER
            else:
                kwargs["methods"] = tuple(m.strip() for m in value.split(","))
        elif key == "filter.min_prevalence":
            kwargs["min_prevalence"] = float(_parse_scalar(value, key))
        elif key == "filter.min_total":
            kwargs["min_total"] = float(_parse_scalar(value, key))
        elif key.startswith("binarize."):
            method = key[len("binarize."):]
            if method not in METHOD_ORDER:
                raise ConfigError(f"binarization rule for unknown method {method!r}")
            rules[method] = parse_rule(value)
        elif "." in key:
            method, _, fname = key.partition(".")
            if method not in METHOD_ORDER:
                raise ConfigError(f"unknown configuration key {key!r}")
            if fname not in field_names[method]:
                raise ConfigError(
                    f"{key!r}: {method} has no parameter {fname!r} "
                    f"(known: {', '.join(sorted(field_names[method]))})"
                )
            params = method_params.get(method) or default_params(method)
            try:
                method_params[method] = replace(params, **{fname: _parse_scalar(value, key)})
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key!r}: invalid value {value!r}: {exc}") from exc
        else:
            raise ConfigError(f"unknown configuration key {key!r}")

    return PipelineConfig(method_params=method_params, rules=rules, **kwargs)


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config(parse_config_text(text, source=str(path)))


def _format_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, (tuple, list)):
        return ",".join(repr(float(x)) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_to_text(cfg: PipelineConfig) -> str:
    """Canonical echo of the effective configuration.

    Every enabled method's full parameter record and rule are spelled out,
    so the echo reproduces the run even where defaults were used.  Feeding
    the echo back through the parser yields an equivalent config.
    """
    lines = []
    if cfg.input_path is not None:
        lines.append(f"input = {cfg.input_path}")
    lines.append(f"orientation = {cfg.orientation}")
    lines.append(f"output = {cfg.output_dir}")
    lines.append(f"seed = {cfg.seed}")
    lines.append(f"jobs = {cfg.jobs}")
    lines.append(f"methods = {','.join(cfg.methods)}")
    lines.append(f"filter.min_prevalence = {_format_value(cfg.min_prevalence)}")
    lines.append(f"filter.min_total = {_format_value(cfg.min_total)}")
    for m in cfg.methods:
        params = cfg.params_for(m)
        for f in fields(type(params)):
            lines.append(f"{m}.{f.name} = {_format_value(getattr(params, f.name))}")
        lines.append(f"binarize.{m} = {_rule_to_text(cfg.rule_for(m))}")
    return "\n".join(lines) + "\n"
