"""attackcf: attack path discovery and attack movement prediction.

Builds a directed asset graph annotated with CVE/CVSS/CWE vulnerability
data, enumerates all bounded non-circular attack paths between configured
entry and target assets, and classifies likely attacker movements between
asset pairs using Pearson-correlation collaborative filtering over shared
vulnerability scores.
"""

from attackcf.model import (
    Asset,
    AssetGraph,
    AssetKind,
    AttackerProfile,
    AttackPath,
    Classification,
    DiscoveryConfig,
    Prediction,
    PredictionConfig,
    VulnerabilityInstance,
    VulnType,
    validate_model,
)
from attackcf.ingest import (
    IngestError,
    ConfigError,
    ModelBundle,
    load_assets,
    load_bundle,
    load_config,
    load_edges,
    load_model,
    load_vulnerabilities,
    save_assets,
    save_edges,
    save_vulnerabilities,
)
from attackcf.discovery import (
    DiscoveryResult,
    discover,
    entry_eligible,
)
from attackcf.similarity import (
    UndefinedSimilarityError,
    pcc,
)
from attackcf.prediction import (
    PredictionReport,
    classify_pair,
    predict,
)
from attackcf.bench import BenchRecord, SynthSpec, generate, run_bench

__version__ = "0.1.0"

__all__ = [
    "Asset",
    "AssetGraph",
    "AssetKind",
    "AttackPath",
    "AttackerProfile",
    "BenchRecord",
    "Classification",
    "ConfigError",
    "DiscoveryConfig",
    "DiscoveryResult",
    "IngestError",
    "ModelBundle",
    "Prediction",
    "PredictionConfig",
    "PredictionReport",
    "SynthSpec",
    "UndefinedSimilarityError",
    "VulnType",
    "VulnerabilityInstance",
    "classify_pair",
    "discover",
    "entry_eligible",
    "generate",
    "load_assets",
    "load_bundle",
    "load_config",
    "load_edges",
    "load_model",
    "load_vulnerabilities",
    "pcc",
    "predict",
    "run_bench",
    "save_assets",
    "save_edges",
    "save_vulnerabilities",
    "validate_model",
]
