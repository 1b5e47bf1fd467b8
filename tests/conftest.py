"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.memo import clear_memos
from repro.runtime import Device
from repro.sim.arch import TITAN_V_SIM

ATAX_SRC = """
#define NX 512
#define NY 64

__global__ void atax_kernel1(float *A, float *x, float *tmp) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NX) {
        for (int j = 0; j < NY; j++) {
            tmp[i] += A[i * NY + j] * x[j];
        }
    }
}
"""


@pytest.fixture(autouse=True)
def _cold_memos():
    """Every test parses, analyses, lowers and records afresh: a memo hit
    left by an earlier test would skip the code a test patches (e.g.
    ``AffineFlow``, the tape lowerer or executor)."""
    clear_memos()


@pytest.fixture
def device():
    return Device(TITAN_V_SIM)


@pytest.fixture
def atax_src():
    return ATAX_SRC
