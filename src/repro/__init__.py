"""State Skip LFSR test-set-embedding library.

This package reproduces the system described in

    V. Tenentes, X. Kavousianos, E. Kalligeros,
    "State Skip LFSRs: Bridging the Gap between Test Data Compression and
    Test Set Embedding for IP Cores", DATE 2008.

The top-level entry point is :func:`repro.pipeline.compress`, which runs the
complete flow (window-based LFSR-reseeding encoding, State Skip test-sequence
reduction, decompressor construction and verification) on a test set and
returns a :class:`repro.pipeline.CompressionReport`.

Sub-packages
------------
``repro.gf2``
    GF(2) linear algebra: bit vectors, matrices, incremental solvers,
    polynomials.
``repro.lfsr``
    LFSRs, transition matrices, State Skip LFSRs, phase shifters.
``repro.scan``
    Scan-chain architecture of the core under test.
``repro.testdata``
    Test cubes, test sets, calibrated synthetic benchmark generators and
    published reference data.
``repro.circuits``
    Gate-level netlists, fault simulation and ATPG (produces genuine test
    cubes for circuits whose structure is available).
``repro.encoding``
    Window-based LFSR-reseeding seed computation (L = 1 is classical
    reseeding).
``repro.skip``
    The paper's test-sequence-reduction method (Section 3.2).
``repro.decompressor``
    The on-chip decompression architecture (Section 3.3) and its
    gate-equivalent cost model.
``repro.campaign``
    Campaign orchestration: declarative experiment grids executed on a
    multiprocessing worker pool against a persistent, content-addressed
    result store (resume for free).
"""

__version__ = "0.1.0"

__all__ = [
    "CampaignRunner",
    "CampaignSpec",
    "CompressionConfig",
    "CompressionContext",
    "CompressionReport",
    "ResultStore",
    "compress",
    "__version__",
]

_LAZY_EXPORTS = {
    "CompressionConfig": ("repro.config", "CompressionConfig"),
    "CompressionContext": ("repro.context", "CompressionContext"),
    "CompressionReport": ("repro.pipeline", "CompressionReport"),
    "compress": ("repro.pipeline", "compress"),
    "CampaignSpec": ("repro.campaign.spec", "CampaignSpec"),
    "CampaignRunner": ("repro.campaign.runner", "CampaignRunner"),
    "ResultStore": ("repro.campaign.store", "ResultStore"),
}


def __getattr__(name):
    """Lazily resolve the high-level pipeline exports.

    Keeps ``import repro.gf2`` (and the other substrates) importable without
    paying for the full pipeline import graph.
    """
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value
