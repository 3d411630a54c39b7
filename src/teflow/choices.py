"""The named choices the command line offers, kept apart so its parser loads no analysis module."""

TRANSFORMS = ("levels", "diff")
LAG_MODES = ("history", "shift")
PRESET_NAMES = ("full", "subset1", "subset2", "subset3")
KINDS = ("iid_binary", "copy", "coupled_markov", "gaussian_ar1")
