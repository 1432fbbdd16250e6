"""Should-flag fixture for N1: wall-clock read outside telemetry//resilience/."""

import time


def run():
    started = time.perf_counter()
    return started
