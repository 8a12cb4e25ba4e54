"""Synthetic per-VM access-stream generators.

A :class:`VmWorkload` turns an :class:`~repro.workloads.profiles.AppProfile`
into deterministic memory-access streams, one per vCPU. The address space
of a VM is laid out in pools, each with a *hot* set (cache-resident,
reused) and a *streaming* region (cold, one-touch per pass):

====================  =========================================  =========
pool                  guest pages                                 sharing
====================  =========================================  =========
private hot/stream    per-vCPU regions                            VM-private
VM-shared hot/stream  one region per VM                           VM-private
                      (shared among the VM's vCPUs)
content hot/stream    identical page numbers and content labels   RO-shared
                      in every VM running the same application
hypervisor pool       hypervisor address space                    RW-shared
dom0 pool             dom0 address space                          RW-shared
====================  =========================================  =========

Hot accesses nearly always hit; streaming accesses nearly always miss.
The per-category probabilities are solved from the profile's targets so
that the *shares* of L1 accesses and L2 misses land on the paper's
measured values (see DESIGN.md §2). Streaming through the content region
is what creates the cross-VM holder distribution of Table VI: several
VMs walk the same region, so a block missed by one VM is often still
resident in another VM's cache.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Iterator, List, Tuple

from repro.workloads.profiles import AppProfile
from repro.workloads.trace import Initiator, MemoryAccess

BLOCKS_PER_PAGE = 64
_PAGE_SHIFT = BLOCKS_PER_PAGE.bit_length() - 1  # block number -> page offset
_BLOCK_MASK = BLOCKS_PER_PAGE - 1
_tuple_new = tuple.__new__

# Guest-page-number bases of each pool (disjoint by construction).
SHARED_HOT_BASE = 0x20000
SHARED_STREAM_BASE = 0x28000
CONTENT_HOT_BASE = 0x40000
CONTENT_STREAM_BASE = 0x48000
PRIVATE_BASE = 0x100000
PRIVATE_VCPU_STRIDE = 0x20000
PRIVATE_STREAM_OFFSET = 0x10000

# Pages in the hypervisor's and dom0's own address spaces.
HYP_POOL_BASE = 0x1000
HYP_POOL_PAGES = 512
DOM0_POOL_BASE = 0x2000
DOM0_POOL_PAGES = 512

# Category indices (order defines the cumulative-probability table).
_CONTENT_STREAM = 0
_CONTENT_HOT = 1
_HYP = 2
_DOM0 = 3
_SHARED_STREAM = 4
_SHARED_HOT = 5
_PRIVATE_STREAM = 6
_PRIVATE_HOT = 7


class _StreamCursor:
    """A wrapping sequential walk over ``pages`` pages of one region."""

    __slots__ = ("base", "pages", "page", "block")

    def __init__(self, base: int, pages: int, start_page: int = 0) -> None:
        self.base = base
        self.pages = pages
        self.page = start_page % pages
        self.block = 0

    def next(self) -> Tuple[int, int]:
        location = (self.base + self.page, self.block)
        self.block += 1
        if self.block == BLOCKS_PER_PAGE:
            self.block = 0
            self.page = (self.page + 1) % self.pages
        return location


class CategoryMix:
    """Solved per-access category probabilities plus derived knobs."""

    __slots__ = ("probabilities", "shared_write_fraction")

    def __init__(self, probabilities: List[float], shared_write_fraction: float) -> None:
        self.probabilities = probabilities
        self.shared_write_fraction = shared_write_fraction


# A store to a hot VM-shared block costs roughly this many coherence
# transactions once re-reads and upgrades by the other vCPUs are counted
# (measured empirically on the simulator with 4 vCPUs per VM).
PINGPONG_FACTOR = 8.0


def solve_category_mix(
    profile: AppProfile, include_hypervisor: bool = True
) -> CategoryMix:
    """Per-access probabilities of the eight access categories.

    Streaming categories are sized so each pool's share of *misses* hits
    the profile target (stream accesses miss with probability ~1, hot
    accesses hit with probability ~1); hot categories absorb the rest of
    the pool's *access* share.

    ``include_hypervisor=False`` reproduces the paper's Section V
    simulator, which runs neither the hypervisor nor dom0: their miss
    mass is folded back into the guest pools.
    """
    m = profile.miss_rate
    hyp_share = profile.hyp_miss_share if include_hypervisor else 0.0
    dom0_share = profile.dom0_miss_share if include_hypervisor else 0.0
    p_content_stream = profile.content_miss_share * m
    p_content_hot = profile.content_access_fraction - p_content_stream
    p_hyp = hyp_share * m
    p_dom0 = dom0_share * m
    rest_access = 1.0 - profile.content_access_fraction - p_hyp - p_dom0
    if rest_access <= 0.0:
        raise ValueError(f"{profile.name}: no access mass left for private pools")
    rest_miss = m * (1.0 - profile.content_miss_share - hyp_share - dom0_share)
    a_shared = min(profile.vm_shared_access_fraction, rest_access)
    a_private = rest_access - a_shared
    shared_budget = rest_miss * (a_shared / rest_access)
    # Stores to hot VM-shared blocks trigger invalidation ping-pong; its
    # expected coherence-transaction mass must come out of the shared
    # pool's miss budget or the totals overshoot. Cap the effective
    # write fraction so ping-pong consumes at most ~30% of the budget.
    a_shared_hot = max(a_shared - shared_budget, 1e-12)
    write_cap = 0.3 * shared_budget / (PINGPONG_FACTOR * a_shared_hot)
    shared_write = min(profile.shared_write_fraction, write_cap)
    pingpong_mass = PINGPONG_FACTOR * shared_write * a_shared_hot
    p_shared_stream = max(shared_budget - pingpong_mass, 0.0)
    p_private_stream = rest_miss - shared_budget
    p_shared_hot = a_shared - p_shared_stream
    p_private_hot = a_private - p_private_stream
    probabilities = [
        p_content_stream,
        p_content_hot,
        p_hyp,
        p_dom0,
        p_shared_stream,
        p_shared_hot,
        p_private_stream,
        p_private_hot,
    ]
    if any(p < 0 for p in probabilities):
        raise ValueError(
            f"{profile.name}: inconsistent targets produced negative "
            f"category probability {probabilities}"
        )
    return CategoryMix(probabilities, shared_write)


def solve_category_probabilities(
    profile: AppProfile, include_hypervisor: bool = True
) -> List[float]:
    """Back-compat helper: just the probability list of the mix."""
    return solve_category_mix(profile, include_hypervisor).probabilities


class VmWorkload:
    """Deterministic access streams for one VM running one application."""

    def __init__(
        self,
        profile: AppProfile,
        vm_id: int,
        num_vcpus: int,
        seed: int = 0,
        include_hypervisor: bool = True,
        working_set_scale: float = 1.0,
        coverage_accesses: int = 6000,
    ) -> None:
        if working_set_scale <= 0:
            raise ValueError(f"working_set_scale must be positive, got {working_set_scale}")
        self.profile = profile
        self.vm_id = vm_id
        self.num_vcpus = num_vcpus
        self._rng = random.Random(f"{seed}/{profile.name}/{vm_id}")
        # Bound methods, hoisted: next_access is the single hottest call in
        # the simulator and method lookup on the Random instance is a
        # measurable fraction of it.
        self._random = self._rng.random
        self._randrange = self._rng.randrange
        self._getrandbits = self._rng.getrandbits
        mix = solve_category_mix(profile, include_hypervisor)
        self.shared_write_fraction = mix.shared_write_fraction
        probabilities = mix.probabilities
        # Hot-pool sizes, in blocks. The profile's page counts are upper
        # bounds, additionally scaled for migration studies and capped so
        # each pool is touched ~3x per core within ``coverage_accesses``
        # (the warm-up budget) — a pool too large for its access rate
        # would stay partially cold and leak uncalibrated misses.
        scale = working_set_scale

        def pool_blocks(pages: int, touch_probability: float) -> int:
            bound = max(1, round(pages * scale)) * BLOCKS_PER_PAGE
            coverage_cap = int(touch_probability * coverage_accesses / 3)
            return max(16, min(bound, coverage_cap)) if coverage_cap > 0 else 16

        self.private_hot_blocks = pool_blocks(
            profile.hot_private_pages, probabilities[_PRIVATE_HOT]
        )
        self.shared_hot_blocks = pool_blocks(
            profile.hot_shared_pages, probabilities[_SHARED_HOT]
        )
        self.content_hot_blocks = pool_blocks(
            profile.hot_content_pages, probabilities[_CONTENT_HOT]
        )
        self.hot_content_pages = -(-self.content_hot_blocks // BLOCKS_PER_PAGE)
        # Bit widths for the inlined ``Random._randbelow_with_getrandbits``
        # in next_access (pool sizes are fixed for the workload's lifetime).
        self._private_hot_bits = self.private_hot_blocks.bit_length()
        self._shared_hot_bits = self.shared_hot_blocks.bit_length()
        self._content_hot_bits = self.content_hot_blocks.bit_length()
        self.content_stream_pages = max(4, round(profile.content_stream_pages * scale))
        self._cumulative: List[float] = []
        total = 0.0
        for p in probabilities:
            total += p
            self._cumulative.append(total)
        # Flat attributes for next_access (skip the per-access profile
        # attribute chain and the cumulative[-1] index).
        self._cum_total = self._cumulative[-1]
        self._write_fraction = profile.write_fraction
        self._content_write_fraction = profile.content_write_fraction
        # Streaming cursors. Private streams are per-vCPU; the VM-shared
        # and content streams are walked jointly by all vCPUs of the VM.
        # Content cursors start at a per-VM random phase so the VMs'
        # positions in the (identical) region partially overlap — that
        # overlap is the source of cross-VM cache holders (Table VI).
        self._private_streams = [
            _StreamCursor(
                PRIVATE_BASE + v * PRIVATE_VCPU_STRIDE + PRIVATE_STREAM_OFFSET,
                profile.stream_pages,
            )
            for v in range(num_vcpus)
        ]
        self._shared_stream = _StreamCursor(SHARED_STREAM_BASE, profile.stream_pages)
        # Content-stream phase: VMs running the same application start
        # together in reality, so their walks through the (identical)
        # content region are loosely aligned. VMs are phased in *pairs* —
        # a pair shares a nearby position (a few pages apart), pairs are
        # half a region apart — so the trailing VM of a pair frequently
        # misses onto blocks its partner fetched moments earlier. That
        # partner is also the VM sharing the most content pages in time,
        # i.e. the natural friend VM (Table VI, Figure 10).
        # The pair offset must be small relative to how far a VM streams
        # during a run, or the trailing VM never reaches its partner's
        # footprint; scale it to ~half the expected warm-up advance.
        advance_blocks = probabilities[_CONTENT_STREAM] * num_vcpus * coverage_accesses
        pair_jitter = min(
            max(1, int(advance_blocks / 2) // BLOCKS_PER_PAGE + 1),
            max(1, self.content_stream_pages // 8),
        )
        pair_index = max(vm_id - 1, 0) // 2
        member = max(vm_id - 1, 0) % 2
        self.content_stream_phase = (
            pair_index * (self.content_stream_pages // 2) + member * pair_jitter
        ) % self.content_stream_pages
        self._content_stream = _StreamCursor(
            CONTENT_STREAM_BASE,
            self.content_stream_pages,
            start_page=self.content_stream_phase,
        )
        self._hyp_stream = _StreamCursor(HYP_POOL_BASE, HYP_POOL_PAGES)
        self._dom0_stream = _StreamCursor(DOM0_POOL_BASE, DOM0_POOL_PAGES)
        # Per-vCPU hot-path closures, built lazily by stepper_for().
        self._steppers: dict = {}

    # ------------------------------------------------------------------
    # Content-sharing registration.
    # ------------------------------------------------------------------

    def content_pages(self) -> Iterator[Tuple[int, int]]:
        """(guest_page, content_label) pairs for the content pools.

        Labels equal the page number, so every VM running the same
        application produces identical labels and the scanner merges them.
        """
        for i in range(self.hot_content_pages):
            page = CONTENT_HOT_BASE + i
            yield page, page
        for i in range(self.content_stream_pages):
            page = CONTENT_STREAM_BASE + i
            yield page, page

    # ------------------------------------------------------------------
    # Stream generation.
    # ------------------------------------------------------------------

    def stepper_for(self, vcpu_index: int):
        """The cached hot-path closure for ``vcpu_index`` (see make_stepper)."""
        step = self._steppers.get(vcpu_index)
        if step is None:
            step = self._steppers[vcpu_index] = self.make_stepper(vcpu_index)
        return step

    def make_stepper(self, vcpu_index: int):
        """Build the per-vCPU access-generation closure.

        Returns a zero-argument callable producing ``(initiator,
        guest_page, block_index, is_write)``. Every piece of workload
        state is captured in closure cells, so the simulation engine's
        inner loop can call it with no attribute traffic and no
        :class:`MemoryAccess` allocation. :meth:`next_access` delegates
        here, so the RNG draw sequence is identical whichever entry point
        a caller uses — that sequence is part of the deterministic
        contract: reordering or eliding draws changes every downstream
        statistic, so optimisations must keep the exact draw order of
        each branch.

        The hot-pool branches inline ``random.Random._randbelow_with_
        getrandbits`` for the pool's fixed size: the getrandbits call
        sequence — and therefore the RNG stream — is exactly what
        ``randrange(n)`` would consume. Streaming branches inline the
        :class:`_StreamCursor` walk (shared cursor objects keep vCPUs of
        one VM jointly walking the shared/content regions).
        """
        random = self._random
        getrandbits = self._getrandbits
        cumulative = self._cumulative
        cum_total = self._cum_total
        write_fraction = self._write_fraction
        shared_write_fraction = self.shared_write_fraction
        content_write_fraction = self._content_write_fraction
        private_hot_blocks = self.private_hot_blocks
        private_hot_bits = self._private_hot_bits
        shared_hot_blocks = self.shared_hot_blocks
        shared_hot_bits = self._shared_hot_bits
        content_hot_blocks = self.content_hot_blocks
        content_hot_bits = self._content_hot_bits
        private_base = PRIVATE_BASE + vcpu_index * PRIVATE_VCPU_STRIDE
        private_stream = self._private_streams[vcpu_index]
        shared_stream = self._shared_stream
        content_stream = self._content_stream
        hyp_stream = self._hyp_stream
        dom0_stream = self._dom0_stream
        guest = Initiator.GUEST
        hypervisor = Initiator.HYPERVISOR
        dom0 = Initiator.DOM0

        def step():
            category = bisect_right(cumulative, random() * cum_total)
            if category > _PRIVATE_HOT:
                category = _PRIVATE_HOT
            initiator = guest
            is_write = random() < write_fraction
            if category == _PRIVATE_HOT:
                r = getrandbits(private_hot_bits)
                while r >= private_hot_blocks:
                    r = getrandbits(private_hot_bits)
                page = private_base + (r >> _PAGE_SHIFT)
                block = r & _BLOCK_MASK
            elif category == _PRIVATE_STREAM:
                cursor = private_stream
                page = cursor.base + cursor.page
                block = cursor.block
                nxt = block + 1
                if nxt == BLOCKS_PER_PAGE:
                    cursor.block = 0
                    cursor.page = (cursor.page + 1) % cursor.pages
                else:
                    cursor.block = nxt
            elif category == _SHARED_HOT:
                r = getrandbits(shared_hot_bits)
                while r >= shared_hot_blocks:
                    r = getrandbits(shared_hot_bits)
                page = SHARED_HOT_BASE + (r >> _PAGE_SHIFT)
                block = r & _BLOCK_MASK
                is_write = random() < shared_write_fraction
            elif category == _SHARED_STREAM:
                cursor = shared_stream
                page = cursor.base + cursor.page
                block = cursor.block
                nxt = block + 1
                if nxt == BLOCKS_PER_PAGE:
                    cursor.block = 0
                    cursor.page = (cursor.page + 1) % cursor.pages
                else:
                    cursor.block = nxt
                is_write = random() < shared_write_fraction
            elif category == _CONTENT_STREAM:
                cursor = content_stream
                page = cursor.base + cursor.page
                block = cursor.block
                nxt = block + 1
                if nxt == BLOCKS_PER_PAGE:
                    cursor.block = 0
                    cursor.page = (cursor.page + 1) % cursor.pages
                else:
                    cursor.block = nxt
                is_write = random() < content_write_fraction
            elif category == _CONTENT_HOT:
                r = getrandbits(content_hot_bits)
                while r >= content_hot_blocks:
                    r = getrandbits(content_hot_bits)
                page = CONTENT_HOT_BASE + (r >> _PAGE_SHIFT)
                block = r & _BLOCK_MASK
                is_write = random() < content_write_fraction
            elif category == _HYP:
                cursor = hyp_stream
                page = cursor.base + cursor.page
                block = cursor.block
                nxt = block + 1
                if nxt == BLOCKS_PER_PAGE:
                    cursor.block = 0
                    cursor.page = (cursor.page + 1) % cursor.pages
                else:
                    cursor.block = nxt
                initiator = hypervisor
                is_write = random() < 0.2
            else:
                cursor = dom0_stream
                page = cursor.base + cursor.page
                block = cursor.block
                nxt = block + 1
                if nxt == BLOCKS_PER_PAGE:
                    cursor.block = 0
                    cursor.page = (cursor.page + 1) % cursor.pages
                else:
                    cursor.block = nxt
                initiator = dom0
                is_write = random() < 0.2
            return initiator, page, block, is_write

        return step

    @property
    def stream_chunk_independent(self) -> bool:
        """Whether :meth:`stream_chunk` is exact under the engine's
        interleaving. The VM's vCPUs share one RNG (and the shared /
        content / hyp / dom0 cursors), so materialising one vCPU's run
        ahead of time reorders draws against its siblings — chunking is
        only interleaving-exact when the VM has a single vCPU. The
        batched kernel generates multi-vCPU VMs one access at a time
        through their steppers instead, which preserves the engine's
        exact draw interleaving."""
        return self.num_vcpus == 1

    def stream_chunk(self, vcpu_index: int, count: int) -> List[tuple]:
        """Materialise ``count`` accesses of one vCPU in bulk.

        Returns a list of ``(initiator, guest_page, block_index,
        is_write)`` tuples — the next ``count`` results of the vCPU's
        stepper, consuming the VM RNG as if this vCPU ran alone. See
        :attr:`stream_chunk_independent` for when that equals the
        per-access interleaved sequence.
        """
        step = self._steppers.get(vcpu_index)
        if step is None:
            step = self._steppers[vcpu_index] = self.make_stepper(vcpu_index)
        return [step() for _ in range(count)]

    def snapshot_state(self) -> dict:
        """Mutable generator state as plain data (RNG word state plus the
        stream-cursor positions) for the warm-state snapshot layer. The
        dict shape is frozen: it is what existing stored snapshots carry
        (see ``SimulatedSystem.snapshot``)."""
        return {
            "rng": self._rng.getstate(),
            "private": [(c.page, c.block) for c in self._private_streams],
            "shared": (self._shared_stream.page, self._shared_stream.block),
            "content": (self._content_stream.page, self._content_stream.block),
            "hyp": (self._hyp_stream.page, self._hyp_stream.block),
            "dom0": (self._dom0_stream.page, self._dom0_stream.block),
        }

    def restore_state(self, captured: dict) -> None:
        """Transplant a :meth:`snapshot_state` capture, in place (stepper
        closures alias the cursor and RNG objects, so identities must
        survive)."""
        self._rng.setstate(captured["rng"])
        for cursor, (page, block) in zip(self._private_streams, captured["private"]):
            cursor.page, cursor.block = page, block
        for name, cursor in (
            ("shared", self._shared_stream),
            ("content", self._content_stream),
            ("hyp", self._hyp_stream),
            ("dom0", self._dom0_stream),
        ):
            cursor.page, cursor.block = captured[name]

    def next_access(self, vcpu_index: int) -> MemoryAccess:
        """Generate the next access of ``vcpu_index``.

        Delegates to the vCPU's stepper closure (the single source of the
        generation logic and RNG draw order; see :meth:`make_stepper`)
        and wraps the result in a :class:`MemoryAccess`. tuple.__new__
        skips the namedtuple's Python-level __new__ wrapper.
        """
        step = self._steppers.get(vcpu_index)
        if step is None:
            step = self._steppers[vcpu_index] = self.make_stepper(vcpu_index)
        initiator, page, block, is_write = step()
        return _tuple_new(
            MemoryAccess,
            (self.vm_id, vcpu_index, initiator, page, block, is_write),
        )

    def stream(self, vcpu_index: int, count: int) -> Iterator[MemoryAccess]:
        """Yield ``count`` accesses for one vCPU."""
        for _ in range(count):
            yield self.next_access(vcpu_index)
