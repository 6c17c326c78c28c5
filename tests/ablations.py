"""The ablations of the paper's study as `TrainConfig` field settings: name ->
the fields that differ from the full model. `mhcr` has no ablation
presets: a run sets these fields as flags, config keys or `sweep --grid`
values, and `training.variant_label` names the result. The acceptance
gate, the training tests, the README check and `digest_grid.py` read this
table; it imports nothing, so the digest grid can run against another
checkout."""

ABLATIONS = {
    "full": {},
    "wo-ui": {"use_ui": False},
    "wo-ii": {"use_ii": False},
    "wo-hem": {"use_hem": False},
    "wo-hc": {"lambda_hc": 0.0},
    "wo-ghc": {"lambda_ghc": 0.0},
    "bpr-mf": {"use_ii": False, "use_hem": False, "layers": 0},
}
