"""The kernel backend's name, which the benchmark worker records; numpy is the only one."""

BACKEND = "numpy"
