"""Pipeline configuration: plain-text dotted key=value files.

Example::

    input = counts.tsv
    orientation = samples_in_rows
    methods = pearson,sparcc,spring
    seed = 7
    filter.min_prevalence = 0.1
    sparcc.alpha = 0.1
    binarize.sparcc = abs_threshold:0.4

Every method parameter is addressable as ``<method>.<field>``.  Each value
is converted once, to the type its dataclass field declares; a field typed
``Literal[...]`` lists its choices.  Unknown keys, unknown methods, and
malformed values are hard errors that name their key.  A method runs at its
documented defaults (:func:`taxonet.methods.default_params`) except for the
fields the config sets.  Per-method seeds are not parameters: they all
derive from the master ``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Literal, get_args, get_origin, get_type_hints

from .consensus import BinarizationRule
from .errors import ConfigError, TaxonetError
from .methods import METHOD_ORDER, default_params, default_rule


@dataclass
class PipelineConfig:
    input_path: str | None = None
    orientation: Literal["samples_in_rows", "taxa_in_rows"] = "samples_in_rows"
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
        if not 0 <= self.min_total < math.inf:
            raise ConfigError("filter.min_total must be finite and nonnegative")
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


ORIENTATIONS = get_args(get_type_hints(PipelineConfig)["orientation"])

# each top-level key and the PipelineConfig field it sets, in echo order
SETTINGS = {
    "input": "input_path",
    "orientation": "orientation",
    "output": "output_dir",
    "seed": "seed",
    "jobs": "jobs",
    "methods": "methods",
    "filter.min_prevalence": "min_prevalence",
    "filter.min_total": "min_total",
}


def _typed(text: str, hint, key: str):
    """``text`` as a value of ``hint``, the type of the field ``key`` sets."""
    args = get_args(hint)
    if type(None) in args:
        if text.lower() in ("none", "null"):
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _typed(text, hint, key)
    if get_origin(hint) is Literal:
        if text not in args:
            raise ConfigError(f"{key} must be one of {', '.join(args)}, got {text!r}")
        return text
    if get_origin(hint) is tuple:
        parts = [p.strip() for p in text.split(",")]
        types = args[:1] * len(parts) if args[-1] is Ellipsis else args
        if len(parts) != len(types):
            raise ConfigError(f"{key} must be {len(types)} comma-separated values, got {text!r}")
        return tuple(_typed(p, t, key) for p, t in zip(parts, types))
    if hint is bool:
        if text.lower() not in ("true", "false"):
            raise ConfigError(f"{key} must be true or false, got {text!r}")
        return text.lower() == "true"
    try:
        return hint(text)
    except ValueError:
        kind = "an integer" if hint is int else "a number"
        raise ConfigError(f"{key} must be {kind}, got {text!r}") from None


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
    hints = get_type_hints(PipelineConfig)
    kwargs: dict[str, Any] = {}
    method_values: dict[str, dict[str, Any]] = {}
    rules: dict[str, BinarizationRule] = {}
    for key, value in raw.items():
        section, _, name = key.partition(".")
        if key in SETTINGS:
            if key == "methods" and value.strip() == "all":
                value = ",".join(METHOD_ORDER)
            kwargs[SETTINGS[key]] = _typed(value, hints[SETTINGS[key]], key)
        elif section == "binarize" and name:
            if name not in METHOD_ORDER:
                raise ConfigError(f"binarization rule for unknown method {name!r}")
            try:
                rules[name] = parse_rule(value)
            except TaxonetError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        elif section in METHOD_ORDER and name:
            types = get_type_hints(type(default_params(section)))
            if name not in types:
                raise ConfigError(
                    f"{key!r}: {section} has no parameter {name!r} "
                    f"(known: {', '.join(sorted(types))})"
                )
            method_values.setdefault(section, {})[name] = _typed(value, types[name], key)
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
    # each record is built once from all of its keys, so a check that reads
    # two fields does not depend on the order in which they were given
    method_params = {}
    for section, values in method_values.items():
        try:
            method_params[section] = replace(default_params(section), **values)
        except TaxonetError as exc:
            raise ConfigError(f"{_failing_key(section, values)}: {exc}") from exc
    return PipelineConfig(method_params=method_params, rules=rules, **kwargs)


def _failing_key(section: str, values: dict[str, Any]) -> str:
    """The key of the value a method's record rejected: the first one
    without which its other values are accepted, or the method's name when
    no single value is at fault."""
    for name in values:
        try:
            replace(default_params(section), **{k: v for k, v in values.items() if k != name})
        except TaxonetError:
            continue
        return f"{section}.{name}"
    return section


def load_config(path, overrides: dict[str, str] | None = None) -> PipelineConfig:
    """The config file at ``path``, with ``overrides`` laid over its entries."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config({**parse_config_text(text, source=str(path)), **(overrides or {})})


def _format_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, tuple):
        return ",".join(x if isinstance(x, str) else repr(float(x)) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_to_text(cfg: PipelineConfig) -> str:
    """Canonical echo of the effective configuration.

    Every enabled method's full parameter record and rule are spelled out,
    so the echo reproduces the run even where defaults were used.  Feeding
    the echo back through the parser yields an equivalent config.
    """
    lines = [
        f"{key} = {_format_value(getattr(cfg, name))}"
        for key, name in SETTINGS.items()
        if getattr(cfg, name) is not None
    ]
    for m in cfg.methods:
        params = cfg.params_for(m)
        for f in fields(type(params)):
            lines.append(f"{m}.{f.name} = {_format_value(getattr(params, f.name))}")
        lines.append(f"binarize.{m} = {cfg.rule_for(m).describe()}")
    return "\n".join(lines) + "\n"
