"""Unit tests for the expert placement map."""

import numpy as np
import pytest

from repro.hardware.device import DeviceKind
from repro.memory.placement import ExpertPlacement


def test_all_on_gpu():
    p = ExpertPlacement.all_on_gpu(4, 8)
    assert p.expert_cache_ratio == 1.0
    assert p.gpu_count() == 32
    assert p.is_on_gpu(3, 7)


def test_all_on_cpu():
    p = ExpertPlacement.all_on_cpu(4, 8)
    assert p.expert_cache_ratio == 0.0
    assert p.cpu_experts(0).size == 8


def test_set_and_query():
    p = ExpertPlacement(2, 4)
    p.set_device(1, 2, DeviceKind.GPU)
    assert p.is_on_gpu(1, 2)
    assert p.device_of(1, 2) is DeviceKind.GPU
    assert p.device_of(0, 0) is DeviceKind.CPU
    np.testing.assert_array_equal(p.gpu_experts(1), [2])
    np.testing.assert_array_equal(p.cpu_experts(1), [0, 1, 3])


def test_gpu_count_per_block():
    p = ExpertPlacement(2, 4)
    p.set_device(0, 0, DeviceKind.GPU)
    p.set_device(0, 1, DeviceKind.GPU)
    assert p.gpu_count(0) == 2
    assert p.gpu_count(1) == 0
    assert p.gpu_count() == 2


def test_bounds_checked():
    p = ExpertPlacement(2, 4)
    with pytest.raises(IndexError):
        p.is_on_gpu(2, 0)
    with pytest.raises(IndexError):
        p.is_on_gpu(0, 4)


def test_gpu_mask_reads_residence():
    p = ExpertPlacement(2, 4)
    p.set_device(1, 2, DeviceKind.GPU)
    p.set_device(1, 3, DeviceKind.GPU)
    np.testing.assert_array_equal(p.gpu_mask(1, [2, 0]), [True, False])
    selection = np.array([[3, 1], [0, 2], [2, 3]])
    mask = p.gpu_mask(1, selection)
    assert mask.shape == selection.shape
    for (t, slot), expert in np.ndenumerate(selection):
        assert mask[t, slot] == p.is_on_gpu(1, int(expert))
    assert not p.gpu_mask(0, selection).any()


@pytest.mark.parametrize("block, experts", [
    (0, [1, 4]),              # expert past the end
    (0, [1, -1]),             # negative expert (numpy would wrap it)
    (0, np.array([[0, -4]])),
    (2, [0]),                 # block past the end
    (-1, [0]),                # negative block
])
def test_gpu_mask_bounds_checked(block, experts):
    p = ExpertPlacement.all_on_gpu(2, 4)
    with pytest.raises(IndexError):
        p.gpu_mask(block, experts)


def test_copy_is_independent():
    p = ExpertPlacement(2, 4)
    q = p.copy()
    q.set_device(0, 0, DeviceKind.GPU)
    assert not p.is_on_gpu(0, 0)
    assert q.is_on_gpu(0, 0)


def test_matrix_roundtrip():
    p = ExpertPlacement(2, 3)
    p.set_device(1, 1, DeviceKind.GPU)
    m = p.as_matrix()
    assert m.dtype == bool
    assert m[1, 1] and not m[0, 0]
    m[0, 0] = True  # must not alias internal state
    assert not p.is_on_gpu(0, 0)


def test_invalid_shape():
    with pytest.raises(ValueError):
        ExpertPlacement(0, 4)
