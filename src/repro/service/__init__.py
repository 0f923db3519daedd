"""Campaign-as-a-service execution tier.

The long-running asyncio layer over the campaign engine: clients submit
JSON campaign specs, the service canonicalizes them through the content
hash chain (``config_hash``/``prefix_key``), dedupes against the shared
:class:`ResultStore`, coalesces identical in-flight submissions onto one
execution, shards replicates across the persistent worker pool, streams
per-replicate progress to every subscriber, and survives worker loss by
re-queueing from the content-addressed checkpoint.  See
``docs/SERVICE.md`` for the spec format, the dedupe semantics and the
failure/recovery model.
"""

from repro.experiments.runner import ResultStore
from repro.service.core import CampaignService
from repro.service.scheduler import CampaignScheduler, SchedulerError
from repro.service.spec import CampaignSpec, SpecError, result_record
from repro.service.stats import STATS, ServiceStats
from repro.service.wire import ServiceClient, ServiceServer, start_server

__all__ = [
    "CampaignService",
    "CampaignScheduler",
    "SchedulerError",
    "CampaignSpec",
    "SpecError",
    "result_record",
    "ResultStore",
    "ServiceClient",
    "ServiceServer",
    "ServiceStats",
    "STATS",
    "start_server",
]
