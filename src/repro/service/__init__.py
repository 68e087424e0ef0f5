"""Campaign-as-a-service: queueing, caching HTTP front end.

The distributed story in three layers:

* :mod:`shard <repro.experiments.shard>` — deterministic interleaved
  shards, journal fragments, coordinator merge (bit-identical to the
  sequential engine);
* :mod:`subjects <repro.service.subjects>` /
  :mod:`cache <repro.service.cache>` — submitted source compiled into
  :class:`~repro.experiments.programs.AppProgram` subjects, campaign
  results content-addressed by
  ``digest(source, canonical config)``;
* :mod:`server <repro.service.server>` — the stdlib-asyncio HTTP loop
  behind ``repro serve``: bounded backpressure with pluggable
  load-shedding policies, NDJSON progress streams, bounded request
  bodies, graceful SIGTERM/SIGINT drain, and cache-served repeat
  submissions with zero subject executions — across restarts, when
  the cache is given a journal path.
"""

from .cache import ResultCache, submission_digest
from .server import (
    DEFAULT_MAX_BODY_BYTES,
    SHED_POLICIES,
    CampaignRecord,
    CampaignService,
    ServiceServer,
    serve,
)
from .subjects import (
    SERVICE_MODULE_NAME,
    SubmissionError,
    build_subject,
    canonical_config,
    estimate_cost,
)

__all__ = [
    "ResultCache",
    "submission_digest",
    "CampaignRecord",
    "CampaignService",
    "ServiceServer",
    "serve",
    "DEFAULT_MAX_BODY_BYTES",
    "SHED_POLICIES",
    "SERVICE_MODULE_NAME",
    "SubmissionError",
    "build_subject",
    "canonical_config",
    "estimate_cost",
]
