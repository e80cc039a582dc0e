"""Calibrated hardware parameters.

All timing constants are fitted to the paper's own measurements on the
H100-SXM testbed (dual Xeon 8462Y+, PCIe 5.0 x16):

* **Figure 2 microbenchmark** (host-to-device memcpy):

  - CC-disabled API-return latency is flat ≈1.4 µs (the copy is
    asynchronous); completion throughput climbs to ≈55 GB/s at 32 MB,
    which fits a per-transfer DMA overhead of ≈2.8 µs over a 56 GB/s
    link.
  - CC-enabled latency fits ``max(14.9 µs, 2.3 µs + size / 6.39 GB/s)``
    — the CUDA API blocks on single-thread CPU AES-GCM, whose coupled
    encrypt+copy rate is ≈6.4 GB/s; small transfers pay a ≈14.9 µs
    CC control-plane cost.

* **§7.2** — even with encryption fully off the critical path, the
  CC-mode DMA path tops out at ≈40 GB/s ("the remaining overhead mainly
  owes to 40GB/s maximum bandwidth of CPU-to-GPU memory copy"), versus
  ≈56–64 GB/s with CC disabled.

GPU compute constants are an effective roofline for an H100-SXM
running fp16 transformer kernels; they only need to place compute time
in the right *ratio* to swap time, which is what every figure's shape
depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List

__all__ = [
    "HW_PACKS",
    "HardwareParams",
    "GpuComputeParams",
    "default_params",
    "get_params",
    "pack_names",
]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class GpuComputeParams:
    """Effective roofline for GPU kernels (H100-SXM class)."""

    #: Effective dense fp16 throughput (FLOP/s) after typical MFU losses.
    flops: float = 400e12
    #: Effective HBM bandwidth (B/s) for memory-bound decode kernels.
    hbm_bandwidth: float = 2.0e12
    #: Fixed overhead per layer invocation (kernel launches, sync).
    kernel_overhead: float = 25e-6


@dataclass(frozen=True)
class HardwareParams:
    """One testbed configuration shared by every experiment."""

    # ---- PCIe link (CC disabled) ----------------------------------------
    #: Per-direction effective PCIe bandwidth without CC (B/s).
    pcie_bandwidth: float = 56e9
    #: Fixed DMA setup time per transfer (s).
    dma_overhead: float = 2.8e-6
    #: Time for the async CUDA memcpy API to *return* without CC (s).
    api_latency_ncc: float = 1.4e-6

    # ---- Inter-GPU interconnect (CC disabled) ---------------------------
    #: Per-direction peer-to-peer bandwidth between GPUs (B/s). NVLink
    #: class — far above PCIe, which is why forbidding P2P under CC
    #: ("the serialized bridge") hurts so much.
    p2p_bandwidth: float = 160e9
    #: Fixed latency per P2P hop (s).
    p2p_latency: float = 2.0e-6

    # ---- Confidential-computing channel ---------------------------------
    #: CC control-plane latency floor per transfer (s).
    cc_control_latency: float = 14.9e-6
    #: Per-transfer streaming setup when encryption dominates (s).
    cc_stream_overhead: float = 2.3e-6
    #: Coupled encrypt+copy throughput of ONE CPU thread (B/s). This is
    #: the Fig. 2 bottleneck: the CUDA library encrypts inline.
    enc_bandwidth_per_thread: float = 6.39e9
    #: Same for CPU-side decryption of device-to-host transfers.
    dec_bandwidth_per_thread: float = 6.39e9
    #: DMA ceiling when ciphertext is pre-staged (CC mode, B/s). §7.2
    #: attributes PipeLLM's residual overhead to a reduced CC-mode
    #: copy bandwidth ("40GB/s maximum bandwidth of CPU-to-GPU memory
    #: copy"); the end-to-end FlexGen numbers (<19.6 % overhead vs a
    #: 56 GB/s transfer-bound baseline) imply the *pipelined* staged
    #: path sustains ≈47 GB/s, which is the effective rate we use.
    cc_dma_bandwidth: float = 47e9
    #: Logical size of a NOP transfer (bytes) — a 1-byte dummy (§5.3).
    nop_bytes: int = 1

    # ---- Memory sizes -----------------------------------------------------
    #: GPU device memory capacity (bytes) — H100 80 GB.
    gpu_memory_bytes: int = 80 * GB
    #: Host (CVM) memory capacity (bytes) — 250 GB VM in the paper.
    host_memory_bytes: int = 250 * GB
    #: Page size used by the MPK/PKU-style protection model.
    page_size: int = 4096

    # ---- GPU compute ------------------------------------------------------
    gpu: GpuComputeParams = field(default_factory=GpuComputeParams)

    # -- derived helpers ------------------------------------------------------

    def ncc_api_latency(self, _nbytes: int) -> float:
        """API-return latency of an async memcpy without CC."""
        return self.api_latency_ncc

    def ncc_occupancy(self, nbytes: int) -> float:
        """Link occupancy of one transfer without CC."""
        return self.dma_overhead + nbytes / self.pcie_bandwidth

    def cc_api_latency(self, nbytes: int) -> float:
        """Blocking latency of a CC-enabled memcpy (single thread).

        Matches the Fig. 2 latency column: the control path overlaps
        the encryption stream, so the API blocks for whichever is
        longer.
        """
        stream = self.cc_stream_overhead + nbytes / self.enc_bandwidth_per_thread
        return max(self.cc_control_latency, stream)

    def cc_occupancy(self, nbytes: int) -> float:
        """Back-to-back serialized cost of one CC-enabled transfer.

        Matches the Fig. 2 throughput column (control plane and
        encryption do not overlap across consecutive transfers).
        """
        return self.cc_control_latency + nbytes / self.enc_bandwidth_per_thread

    def enc_time(self, nbytes: int, threads: int = 1) -> float:
        """CPU AES-GCM encryption time for one chunk on N threads."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        bandwidth = self.enc_bandwidth_per_thread * threads
        return self.cc_stream_overhead + nbytes / bandwidth

    def dec_time(self, nbytes: int, threads: int = 1) -> float:
        """CPU AES-GCM decryption time for one chunk on N threads."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        bandwidth = self.dec_bandwidth_per_thread * threads
        return self.cc_stream_overhead + nbytes / bandwidth

    def cc_dma_time(self, nbytes: int) -> float:
        """DMA time of a pre-encrypted chunk over the CC-mode path."""
        return self.dma_overhead + nbytes / self.cc_dma_bandwidth

    def with_overrides(self, **kwargs) -> "HardwareParams":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


def default_params() -> HardwareParams:
    """The calibrated H100-SXM / PCIe 5.0 testbed configuration."""
    return HardwareParams()


def _h100_cc() -> HardwareParams:
    """Hopper GPU-CC: the paper's own H100 calibration (the default)."""
    return HardwareParams()


def _b300_cc() -> HardwareParams:
    """Blackwell-generation GPU-CC: the serialized-bridge regime.

    "The Serialized Bridge" (2026) reports that Blackwell CC keeps
    GPU-local kernels at full speed (bigger roofline, faster HBM) and
    moves the pain entirely to the host↔GPU bridge: the PCIe 6.0 link
    is twice as fast in the clear, but the CC data path still funnels
    through a serialized bounce whose ceiling barely moves. Relative
    to `h100-cc` the compute:transfer ratio therefore *widens* — the
    same workloads become bridge-bound rather than encryption-bound,
    which is exactly the shape migration-heavy disaggregation probes.
    """
    return HardwareParams(
        pcie_bandwidth=100e9,
        dma_overhead=2.2e-6,
        p2p_bandwidth=360e9,
        p2p_latency=1.5e-6,
        cc_control_latency=11.0e-6,
        enc_bandwidth_per_thread=8.2e9,
        dec_bandwidth_per_thread=8.2e9,
        cc_dma_bandwidth=52e9,
        gpu_memory_bytes=192 * GB,
        host_memory_bytes=512 * GB,
        gpu=GpuComputeParams(
            flops=900e12,
            hbm_bandwidth=6.5e12,
            kernel_overhead=20e-6,
        ),
    )


def _cpu_tee() -> HardwareParams:
    """CPU TEE (TDX/SEV-SNP class): no accelerator, no bounce bridge.

    Follows the ETH CPU/GPU-TEE cost study (2025): compute drops by
    two orders of magnitude versus an H100 (AMX-class matmul over DDR5
    instead of tensor cores over HBM), while "transfers" collapse to
    in-package memcpys — high bandwidth, microsecond-free control
    plane, and encryption at the same per-thread AES-GCM rate as ever.
    Confidential data movement is cheap here; cycles are the frontier.
    """
    return HardwareParams(
        pcie_bandwidth=180e9,
        dma_overhead=0.4e-6,
        api_latency_ncc=0.3e-6,
        p2p_bandwidth=180e9,
        p2p_latency=0.4e-6,
        cc_control_latency=2.0e-6,
        cc_stream_overhead=0.8e-6,
        enc_bandwidth_per_thread=6.39e9,
        dec_bandwidth_per_thread=6.39e9,
        cc_dma_bandwidth=120e9,
        gpu_memory_bytes=128 * GB,
        host_memory_bytes=512 * GB,
        gpu=GpuComputeParams(
            flops=4e12,
            hbm_bandwidth=0.31e12,
            kernel_overhead=4e-6,
        ),
    )


#: Named hardware parameter packs — one per TEE hardware generation
#: (ROADMAP item 2). Factories, not instances, so every caller gets a
#: fresh frozen dataclass to `with_overrides` from.
HW_PACKS: Dict[str, Callable[[], HardwareParams]] = {
    "h100-cc": _h100_cc,
    "b300-cc": _b300_cc,
    "cpu-tee": _cpu_tee,
}


def get_params(name: str) -> HardwareParams:
    """Instantiate a named hardware pack from the registry."""
    try:
        return HW_PACKS[name]()
    except KeyError:
        raise ValueError(
            f"unknown hardware pack {name!r}; choose from {sorted(HW_PACKS)}"
        ) from None


def pack_names() -> List[str]:
    """Registry pack names, sorted for deterministic CLI help."""
    return sorted(HW_PACKS)
