"""The numpy-vectorized kernel backend.

Reference-stream generation is the single hottest path of a run
(SplitMix64 hashing + op classification + address arithmetic per
reference); this backend produces whole blocks of references as uint64
array operations with **identical draw order** to the scalar
generators:

- the SplitMix64 finalizer runs on uint64 arrays (numpy wrap-around
  arithmetic equals the interpreter's explicit ``& _MASK64`` masking);
- probability draws compare the same hoisted power-of-two-scaled float
  thresholds against the same 20-bit hash fields, so every comparison
  is exact (see the threshold notes in ``workloads/splash.py``);
- the Zipf inverse-CDF inversion uses ``np.searchsorted(side="left")``
  over the same float64 CDF table — element-for-element equal to
  ``bisect_left``;
- the calibrated SPLASH generators vectorize the hash/classification/
  think/private-address arithmetic and call the subclass's scalar
  ``_shared_addr`` (a pure function) only for the shared minority.

Every generator is asserted bit-identical against the scalar path by
``tests/kernel/test_block_generators.py`` and, end to end, by the
golden digests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel import BackendUnavailable, KernelBackend
from repro.kernel.blocks import BlockGenerator, wrap_stream
from repro.workloads.base import Workload, mix64

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine

try:  # import-guarded: numpy ships via the repro[vector] extra
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

#: 53-bit mantissa mask for the Zipf uniform draw (matches datacenter._U53).
_MASK53 = (1 << 53) - 1
_U53 = float(1 << 53)


def _u64(value: int):
    return _np.uint64(value)


def _mix64_arr(x):
    """SplitMix64 finalizer over a uint64 array (wrap-around semantics
    equal the scalar ``& _MASK64`` masking bit for bit)."""
    x = x + _np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return x ^ (x >> _np.uint64(31))


def _salt_base(workload: Workload, salt: int):
    """uint64 of ``mix64(seed * 0x1F1F1F1F + salt)`` — the per-salt
    seed mix every scalar ``_hash`` call memoizes."""
    return _u64(mix64(workload.seed * 0x1F1F1F1F + salt))


# Generators return the block column triple (think, is_write, addr) as
# plain Python lists — see repro.kernel.blocks for why columns, not
# Reference tuples.


def _pick_addr_vec(wl, base: int, size_bytes: int, proc: int, idx,
                   salt: int, block_len: int, window_items: int):
    """``Workload._pick_addr`` over an index array (same salt for all
    elements).  Mirrors the scalar arithmetic operation for operation;
    the scalar's per-(proc, salt) block memo is irrelevant here because
    the block hash is recomputed as a pure function."""
    np = _np
    u64 = np.uint64
    item_bytes = wl.item_bytes
    n_items = size_bytes // item_bytes
    if n_items < 1:
        n_items = 1
    block = idx // u64(block_len)
    pi = u64(proc << 40) ^ idx
    h = _mix64_arr(_salt_base(wl, salt) ^ pi)
    slot = h % u64(window_items if window_items < n_items else n_items)
    bh = _mix64_arr(_salt_base(wl, salt ^ 0x5A5A) ^ u64(proc << 40) ^ block)
    fin = _mix64_arr(bh + slot)
    offset = (h >> u64(32)) % u64(item_bytes)
    return (
        u64(base)
        + (fin % u64(n_items)) * u64(item_bytes)
        + (offset & u64(0xFFFFFFFFFFFFFFFC))  # & ~0x3
    )


def _water_shared_block(wl, proc: int, idx, h40, sel, addr_list: list) -> None:
    """Vectorized ``Water._shared_addr`` for the shared minority of a
    block: group by (iteration, slice-vs-whole branch) — at most a
    handful of groups per block — and run ``_pick_addr_vec`` per group.
    Patches results into ``addr_list`` in place."""
    np = _np
    u64 = np.uint64
    idx_s = idx[sel]
    h = h40[sel]
    iteration = (idx_s * u64(wl._ITERATIONS)) // u64(max(1, wl._rpp))
    n_items = wl._forces_bytes // wl.item_bytes
    slice_items = max(1, n_items // wl.n_procs)
    item_bytes = wl.item_bytes
    local_slice = (h % u64(100)) < u64(80)
    out = np.zeros(len(idx_s), dtype=np.uint64)
    for it in np.unique(iteration).tolist():
        it_mask = iteration == u64(it)
        for in_slice in (True, False):
            m = it_mask & (local_slice if in_slice else ~local_slice)
            if not m.any():
                continue
            if in_slice:
                out[m] = _pick_addr_vec(
                    wl,
                    wl._forces + (proc * slice_items % n_items) * item_bytes,
                    slice_items * item_bytes,
                    proc, idx_s[m], salt=0xF0CE + it,
                    block_len=4096, window_items=16,
                )
            else:
                out[m] = _pick_addr_vec(
                    wl, wl._forces, wl._forces_bytes,
                    proc, idx_s[m], salt=0xF1CE + it,
                    block_len=4096, window_items=12,
                )
    out_l = out.tolist()
    for j, k in enumerate(np.nonzero(sel)[0].tolist()):
        addr_list[k] = out_l[j]


class CalibratedBlockGen:
    """Vectorized blocks for the SPLASH calibrated generators.

    The private majority (hash, op class, think dither, windowed
    private address) is pure array math; shared references delegate to
    the workload's scalar ``_shared_addr`` — a pure function of
    ``(proc, index, is_write, h >> 40)``, so mixing scalar calls into a
    vector block cannot perturb any draw.
    """

    def __init__(self, workload):
        from repro.workloads.splash import Water

        if not workload._priv_ready:
            workload._init_priv_consts()
        self.wl = workload
        # water's shared path is plain hash arithmetic and has its own
        # vector kernel; the other calibrated families keep the scalar
        # _shared_addr call for their minority of shared references
        self._water = isinstance(workload, Water)

    def __call__(self, proc: int, base: int, count: int) -> tuple:
        wl = self.wl
        np = _np
        u64 = np.uint64
        idx = np.arange(base, base + count, dtype=np.uint64)
        pi = u64(proc << 40) ^ idx

        # == splash._CalibratedWorkload.ref_at, vectorized ==
        h = _mix64_arr(u64(wl._h_ref_base) ^ pi)
        is_write = (h & u64(0xFFFFF)).astype(np.float64) < wl._w_thresh
        h_class = ((h >> u64(20)) & u64(0xFFFFF)).astype(np.float64)
        shared = np.where(is_write, h_class < wl._sw_thresh, h_class < wl._sr_thresh)

        addr = np.zeros(count, dtype=np.uint64)
        item_bytes = u64(wl.item_bytes)
        n_items = u64(wl._priv_n_items)
        priv_base = u64(wl._private[proc])
        off_mask = u64(0xFFFFFFFFFFFFFFFC)  # & ~0x3 on a uint64 field
        for write_branch in (True, False):
            sel = ~shared & (is_write if write_branch else ~is_write)
            if not sel.any():
                continue
            idx_s = idx[sel]
            if write_branch:
                block = idx_s // u64(wl._pw_blklen)
                window = u64(wl._pw_window)
                hp = _mix64_arr(u64(wl._h_pw) ^ pi[sel])
                bh = _mix64_arr(u64(wl._h_pwb) ^ u64(proc << 40) ^ block)
            else:
                block = idx_s >> u64(12)  # // 4096
                window = u64(wl._pr_window)
                hp = _mix64_arr(u64(wl._h_pr) ^ pi[sel])
                bh = _mix64_arr(u64(wl._h_prb) ^ u64(proc << 40) ^ block)
            fin = _mix64_arr(bh + hp % window)
            addr[sel] = (
                priv_base
                + (fin % n_items) * item_bytes
                + ((hp >> u64(32)) % item_bytes & off_mask)
            )

        addr_list = addr.tolist()
        isw_list = is_write.tolist()
        if shared.any():
            if self._water:
                _water_shared_block(wl, proc, idx, h >> u64(40), shared, addr_list)
            else:
                shared_addr = wl._shared_addr
                h40 = (h >> u64(40)).tolist()
                idx_l = idx.tolist()
                for k in np.nonzero(shared)[0].tolist():
                    addr_list[k] = shared_addr(proc, idx_l[k], isw_list[k], h40[k])

        ht = _mix64_arr(u64(wl._h_think_base) ^ pi)
        extra = (ht & u64(0xFFFF)).astype(np.float64) < wl._think_thresh
        think = extra.astype(np.int64) + wl._think_whole
        return think.tolist(), isw_list, addr_list


class ZipfBlockGen:
    """Vectorized blocks for :class:`repro.workloads.datacenter.ZipfKV`."""

    def __init__(self, workload):
        self.wl = workload
        self._b_ref = _salt_base(workload, 0x2B1)
        self._b_think = _salt_base(workload, 0xD17E)
        self._cdf = _np.asarray(workload._cdf, dtype=_np.float64)
        self._perm = _np.asarray(workload._perm, dtype=_np.uint64)

    def __call__(self, proc: int, base: int, count: int) -> tuple:
        wl = self.wl
        np = _np
        u64 = np.uint64
        idx = np.arange(base, base + count, dtype=np.uint64)
        pi = u64(proc << 40) ^ idx

        h = _mix64_arr(self._b_ref ^ pi)
        is_write = (h & u64(0xFFFFF)).astype(np.float64) < wl._wf_thresh
        session = ((h >> u64(20)) & u64(0xFFFFF)).astype(np.float64) < wl._sf_thresh

        item_bytes = u64(wl.item_bytes)
        sess_items = u64(wl.session_items_per_client)
        client = idx % u64(wl.clients_per_proc)
        slot = (h >> u64(40)) % sess_items
        session_addr = (
            u64(wl._sessions[proc]) + (client * sess_items + slot) * item_bytes
        )

        u = ((h >> u64(11)) & u64(_MASK53)).astype(np.float64) / _U53
        rank = np.searchsorted(self._cdf, u, side="left")
        kv_addr = u64(wl._store) + self._perm[rank] * item_bytes

        addr = np.where(session, session_addr, kv_addr)

        # == Workload._think(proc, index, mean) with salt 0xD17E ==
        mean = wl._mean_think
        whole = int(mean)
        ht = _mix64_arr(self._b_think ^ pi)
        extra = (ht & u64(0xFFFF)).astype(np.float64) / 65536.0 < (mean - whole)
        think = extra.astype(np.int64) + whole
        return think.tolist(), is_write.tolist(), addr.tolist()


class ScanBlockGen:
    """Vectorized blocks for
    :class:`repro.workloads.datacenter.ScanAnalytics`."""

    def __init__(self, workload):
        self.wl = workload
        self._b_ref = _salt_base(workload, 0x5CA7)
        self._b_think = _salt_base(workload, 0xD17E)

    def __call__(self, proc: int, base: int, count: int) -> tuple:
        wl = self.wl
        np = _np
        u64 = np.uint64
        idx = np.arange(base, base + count, dtype=np.uint64)
        pi = u64(proc << 40) ^ idx

        h = _mix64_arr(self._b_ref ^ pi)
        is_write = (h & u64(0xFFFFF)).astype(np.float64) < wl._wf_thresh

        item_bytes = u64(wl.item_bytes)
        table_items = u64(wl._table_items)
        start = u64((proc * wl._table_items) // max(1, wl.n_procs))
        scan_addr = (
            u64(wl._table)
            + ((start + idx * u64(wl.stride_items)) % table_items) * item_bytes
        )
        if wl.table_writes:
            addr = scan_addr
        else:
            acc_addr = (
                u64(wl._acc[proc])
                + ((h >> u64(24)) % u64(wl.accumulator_items)) * item_bytes
            )
            addr = np.where(is_write, acc_addr, scan_addr)

        mean = wl._mean_think
        whole = int(mean)
        ht = _mix64_arr(self._b_think ^ pi)
        extra = (ht & u64(0xFFFF)).astype(np.float64) / 65536.0 < (mean - whole)
        think = extra.astype(np.int64) + whole
        return think.tolist(), is_write.tolist(), addr.tolist()


def make_block_generator(workload: Workload) -> BlockGenerator | None:
    """The vectorized generator for ``workload``, or ``None`` when the
    family has no vector kernel (synthetic and trace workloads)."""
    if _np is None:  # pragma: no cover - numpy-free installs
        return None
    from repro.workloads.datacenter import ScanAnalytics, ZipfKV
    from repro.workloads.splash import _CalibratedWorkload

    if isinstance(workload, _CalibratedWorkload):
        return CalibratedBlockGen(workload)
    if isinstance(workload, ZipfKV):
        return ZipfBlockGen(workload)
    if isinstance(workload, ScanAnalytics):
        return ScanBlockGen(workload)
    return None


class VectorBackend(KernelBackend):
    """numpy block generation."""

    name = "vector"

    @classmethod
    def availability_error(cls) -> BackendUnavailable | None:
        if _np is None:
            return BackendUnavailable(
                "vector",
                "numpy is not installed",
                "install the vector extra: pip install 'repro[vector]'",
            )
        return None

    def attach(self, machine: "Machine") -> None:
        gen = make_block_generator(machine.workload)
        if gen is not None:
            for processor in machine.processors:
                for stream in processor.streams:
                    wrap_stream(stream, gen)
