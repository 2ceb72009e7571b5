"""Hot numeric kernels in plain numpy: the fused LSTM scan (``lstm``) and
the per-window ARMA leaves of the ARIMA baseline (``arima``).

Callers reach each kernel through its module attribute
(``lstm_kernels.lstm_forward``), so a profiler can patch it in place.
"""


def active_backend() -> str:
    # every kernel has one numpy build; kept because the benchmark's
    # environment line (perfbench/workloads.py) reports it
    return "numpy"
