"""Campaign orchestration: content-addressed runs over protocol × load × seed grids.

A *campaign* is a declarative grid of simulation runs.  Each cell is a
:class:`~repro.campaign.spec.RunSpec` — a frozen, hashable description of one
simulation (scenario config + protocol + optional scenario overrides) whose
stable content hash keys the result store
(:class:`~repro.campaign.store.ResultStore`, laid out by
:class:`~repro.fleet.shards.ShardedResultStore`).  The
:mod:`~repro.campaign.runner` enqueues pending specs into the store's
:mod:`repro.fleet` work queue, drains it with one in-process worker or
several supervised worker processes, and memoises every finished cell in
the store, so interrupted campaigns resume where they stopped and repeated
invocations are pure cache hits.  ``repro fleet`` drives the same queue
from the command line.
"""

from repro.campaign.runner import CampaignReport, run_campaign, run_specs
from repro.campaign.spec import SPEC_SCHEMA_VERSION, Campaign, RunSpec
from repro.campaign.store import ResultStore, result_from_dict, result_to_dict

__all__ = [
    "Campaign",
    "CampaignReport",
    "ResultStore",
    "RunSpec",
    "SPEC_SCHEMA_VERSION",
    "result_from_dict",
    "result_to_dict",
    "run_campaign",
    "run_specs",
]
