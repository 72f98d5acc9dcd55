"""The benchmark's workloads: request generators, runners and checks.

Every workload drives the stack through its top-level public API only:

- ``pages-sloth`` / ``pages-original``: ``build_app`` + ``AppServer.load_page``
  with a ``Request``, over itracker's and OpenMRS's benchmark URLs;
- ``reports``: one "dashboard" batch per request through
  ``BatchDriver.execute_batch`` -> ``DatabaseServer``;
- ``tpcc-mixed``: the five-transaction TPC-C mix through ``TpccRunner`` on a
  ``SlothClient``.

A workload is a fixed *pass* of requests made from the seed.  Passes of one
run repeat the same requests from the same state, so a faster program does
more passes of identical work instead of different work, and the simulated
(virtual-time) figures repeat exactly.  Inputs come only from the seed; the
program sees nothing but the generated requests.

Each workload offers the same small protocol to the harness in ``run.py``:

``build()``
    set-up: build and seed the databases, then warm up (timed as setup_s);
``references()``
    the references every response is checked against (untimed); the
    harness computes them in a child process and stores the returned
    value in the workload's ``reference`` attribute;
``begin_pass()`` / ``end_pass()``
    untimed per-pass preparation and end-of-pass checks (``end_pass``
    returns the number of failed checks);
``execute(request)``
    one timed request; returns an :class:`Outcome`;
``check(request, outcome)``
    True when the response matches its reference (untimed);
``properties()``
    the input properties recorded for later claims.

Pages and TPC-C have an eager *twin* (see :func:`twin`): their ``sloth``
attribute picks Sloth mode or original mode for pages, the Sloth or the
original TPC-C client.  The traced run measures both sides for the
calibration report.

Skew.  No trace of real traffic for these applications is in the
repository, so the request mixes rest on stated assumptions:

- pages: every benchmark URL is loaded equally often, as in the paper's
  §6.1 method, which reports every benchmark page on its own;
- every skewed parameter (page ids, report ids, dates, thresholds and
  window widths) follows one Zipf law with exponent :data:`ZIPF`, YCSB's
  default request skew;
- ids get a hot order drawn from the seed; for report dates the most
  recent day is hottest, for thresholds the most selective value, for
  windows the narrowest width;
- ``high_value_obs`` asks for values in the top quarter of their range;
- report parameters are dealt in the law's exact shares per pass rather
  than drawn one by one (:meth:`ZipfChoice.deal`): a few thresholds and
  dates cost a hundred times the median statement, and independent draws
  made a pass's cost depend on how many of them the seed happened to pick.

``workload_properties.json`` records the shares these give.
"""

import copy
import random
from collections import Counter
from itertools import accumulate

from repro.apps import itracker, openmrs
from repro.apps.itracker.reports import (
    RANGE_REPORT_QUERIES as ITRACKER_RANGE_REPORTS,
    REPORT_QUERIES as ITRACKER_REPORTS,
)
from repro.apps.openmrs.reports import (
    RANGE_REPORT_QUERIES as OPENMRS_RANGE_REPORTS,
    REPORT_QUERIES as OPENMRS_REPORTS,
)
from repro.apps.tpcc import TpccRunner, seed as seed_tpcc
from repro.apps.tpcc.transactions import OriginalClient, SlothClient
from repro.core.runtime import OptimizationFlags, SlothRuntime
from repro.net.clock import CostModel, SimClock
from repro.net.driver import BatchDriver, Driver
from repro.net.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.plan import FROM_ORDER_OPTIONS
from repro.web.appserver import AppServer, MODE_ORIGINAL, MODE_SLOTH
from repro.web.framework import Request

#: Capacities of the program's own caches at their defaults, recorded next
#: to the measured number of distinct keys each workload presents.
RESULT_CACHE_ENTRIES = 4096
PARSE_CACHE_ENTRIES = 4096
PLAN_CACHE_ENTRIES = 512

#: Exponent of every skewed draw: YCSB's default Zipf constant.  It is an
#: assumption, not a measurement of these applications' traffic.
ZIPF = 0.99


class Outcome:
    """What one timed request returned, as the harness records it."""

    __slots__ = ("sim_ms", "phases", "round_trips", "payload")

    def __init__(self, sim_ms, phases, round_trips, payload):
        self.sim_ms = sim_ms
        self.phases = phases
        self.round_trips = round_trips
        self.payload = payload


class TripCounter:
    """Counts round trips at the driver interface: each ``execute`` and
    each non-empty ``execute_batch`` is one.  Everything else passes
    through to the wrapped driver."""

    def __init__(self, driver):
        self.driver = driver
        self.round_trips = 0

    def execute(self, sql, params=()):
        self.round_trips += 1
        return self.driver.execute(sql, params)

    def execute_batch(self, statements, batch_optimize=False):
        if statements:
            self.round_trips += 1
        return self.driver.execute_batch(statements,
                                         batch_optimize=batch_optimize)

    def __getattr__(self, name):
        return getattr(self.driver, name)


class ZipfChoice:
    """Zipf draws (exponent :data:`ZIPF`) over ``values``, the first the
    hottest, unless ``shuffle`` lets the seed decide which values are
    hot."""

    def __init__(self, rng, values, shuffle=True):
        self.values = list(values)
        if shuffle:
            rng.shuffle(self.values)
        self.cum = list(accumulate(1.0 / (rank + 1) ** ZIPF
                                   for rank in range(len(self.values))))

    def draw(self, rng):
        return rng.choices(self.values, cum_weights=self.cum)[0]

    def deal(self, rng, n):
        """``n`` values in the law's exact shares (largest remainders
        rounded up), in a seeded order."""
        total = self.cum[-1]
        weights = [b - a for a, b in zip([0.0] + self.cum, self.cum)]
        shares = [n * weight / total for weight in weights]
        counts = [int(share) for share in shares]
        by_remainder = sorted(range(len(shares)),
                              key=lambda i: counts[i] - shares[i])
        for i in by_remainder[:n - sum(counts)]:
            counts[i] += 1
        dealt = [value for value, count in zip(self.values, counts)
                 for _ in range(count)]
        rng.shuffle(dealt)
        return dealt


# -- pages-sloth / pages-original ---------------------------------------------

#: Rounds per pass; a round loads every benchmark URL once, so the page mix
#: is the same for every seed.  7 rounds of 150 URLs give the 1000 loads a
#: pass needs for a p99 with 10 samples beyond it.
PAGE_ROUNDS = 7

# Id parameters the controllers read, with their valid ranges at the
# default scale (10 projects x 50 issues; 50 patients x 8 encounters, the
# first of each patient's encounters carrying the full observation set;
# 120 concepts; 10 forms; patients' person rows start at 23).
_DASHBOARD_ENCOUNTERS = tuple(range(1, 50 * 8, 8))
PAGE_PARAMETERS = {
    "module-projects/view_issue.jsp": (("id", range(1, 501)),),
    "module-projects/edit_issue.jsp": (("id", range(1, 501)),),
    "module-projects/move_issue.jsp": (("id", range(1, 501)),),
    "module-projects/view_issue_activity.jsp": (("id", range(1, 501)),),
    "module-projects/list_issues.jsp": (("project", range(1, 11)),),
    "module-projects/create_issue.jsp": (("project", range(1, 11)),),
    "patientDashboardForm.jsp": (("patientId", range(1, 51)),),
    "admin/patients/patientForm.jsp": (("patientId", range(1, 51)),),
    "encounters/encounterDisplay.jsp": (("encounterId", _DASHBOARD_ENCOUNTERS),
                   ("formId", range(1, 11))),
    "admin/observations/personObsForm.jsp": (("personId", range(23, 73)),),
    "dictionary/conceptStatsForm.jsp": (("conceptId", range(1, 121)),),
    "dictionary/conceptForm.jsp": (("conceptId", range(1, 121)),),
    "dictionary/concept.jsp": (("conceptId", range(1, 121)),),
}


def page_requests(seed):
    """One pass of ``(url, params)`` page requests drawn from ``seed``: every
    benchmark URL ``PAGE_ROUNDS`` times in a seeded order, with skewed id
    parameters."""
    rng = random.Random(seed)
    sequence = list(itracker.BENCHMARK_URLS + openmrs.BENCHMARK_URLS) * (
        PAGE_ROUNDS)
    rng.shuffle(sequence)
    choosers = {
        url: [(name, ZipfChoice(rng, values)) for name, values in spec]
        for url, spec in PAGE_PARAMETERS.items()}
    requests = []
    for url in sequence:
        params = tuple((name, chooser.draw(rng))
                       for name, chooser in choosers.get(url, ()))
        requests.append((url, params))
    return requests


class Pages:
    """Cold page loads of both apps in one mode (the paper's §6.1 method:
    result cache off, every load on a fresh request runtime)."""

    fill_passes = 0

    def __init__(self, sloth, seed):
        self.sloth = sloth
        self.requests = page_requests(seed)
        self.distinct = list(dict.fromkeys(self.requests))
        self.cost_model = CostModel()

    def build(self):
        # The cache-less database keeps every load cold, as the paper's
        # restarted servers do.
        self.apps = {}
        for app in (itracker, openmrs):
            db, dispatcher = app.build_app(
                db=Database(app.__name__.rsplit(".", 1)[-1],
                            result_cache_size=0))
            for url in app.BENCHMARK_URLS:
                self.apps[url] = (db, dispatcher)
        # Warm-up: every URL once (parameters only change values bound
        # into already-parsed, already-planned statements).
        for url in self.apps:
            self._load((url, ()), self.sloth)

    def _load(self, request, sloth):
        # A fresh app server (and SimClock) per load, as in the paper's
        # method; it also keeps virtual times exact, free of the rounding
        # of a clock that has run for a long time.
        url, params = request
        db, dispatcher = self.apps[url]
        server = AppServer(db, dispatcher, self.cost_model,
                           mode=MODE_SLOTH if sloth else MODE_ORIGINAL,
                           optimizations=OptimizationFlags.all())
        result = server.load_page(Request(url, dict(params)))
        return Outcome(result.time_ms, result.phases, result.round_trips,
                       result.html)

    def references(self):
        # The reference is the other mode's HTML for the same request.
        return {request: self._load(request, not self.sloth).payload
                for request in self.distinct}

    def begin_pass(self):
        pass

    def execute(self, request):
        return self._load(request, self.sloth)

    def check(self, request, outcome):
        return outcome.payload == self.reference[request]

    def end_pass(self):
        return 0

    def properties(self):
        mix = Counter(url for url, _ in self.requests)
        return {
            "requests_per_pass": len(self.requests),
            "distinct_requests": len(self.distinct),
            "urls": len(mix),
            "top_urls": [[url, count] for url, count in mix.most_common(8)],
        }


# -- reports --------------------------------------------------------------------

#: Data scale: 20 projects x 50 issues and 60 patients (5100 observations),
#: so the executor's operators, not per-statement overheads, dominate.
REPORT_PROJECTS = 20
REPORT_PATIENTS = 60
#: Dashboards per pass: one pass presents more distinct (statement,
#: parameters) keys than the result cache holds, and holds enough costly
#: statements that its virtual time varies by about 1% between seeds.
REPORT_PASS = 2800

_ITRACKER_DAYS = [f"2014-{m:02d}-{d:02d}" for m in range(1, 10)
                  for d in range(1, 29)]
_OPENMRS_DAYS = [f"2013-{m:02d}-{d:02d}" for m in range(1, 13)
                 for d in range(1, 29)]
_WINDOWS = (1, 2, 3, 5, 7, 10, 14, 21, 30)  # days, as day-index offsets


def report_parameters(rng, n):
    """Per report name, ``n`` parameter tuples.  Each parameter is dealt in
    its Zipf law's exact shares (:meth:`ZipfChoice.deal`), so every seed's
    pass holds as many costly values as any other; the seed draws the hot
    ids and the order.  Ids get a seeded hot set; dates, thresholds and
    window widths a fixed one (see the module docstring)."""
    def ids(count):
        return ZipfChoice(rng, range(1, count + 1)).deal(rng, n)

    def ranked(values):
        return ZipfChoice(rng, values, shuffle=False).deal(rng, n)

    def days(calendar):
        return [calendar[day] for day in ranked(
            range(len(calendar) - 1, -1, -1))]

    def window(calendar):
        return [(calendar[start], calendar[min(len(calendar) - 1,
                                               start + width)])
                for start, width in zip(
                    ranked(range(len(calendar) - 1, -1, -1)),
                    ranked(_WINDOWS))]

    def values(lowest=0):
        return ranked(range(199, lowest - 1, -1))

    return {
        "project_issue_listing": zip(ids(REPORT_PROJECTS)),
        "user_history_audit": zip(ids(20)),
        "project_component_overview": zip(ids(REPORT_PROJECTS)),
        "severe_issue_report": zip(ids(REPORT_PROJECTS),
                                   ranked(range(1, 5))),
        "user_activity_audit": zip(ids(20)),
        "issues_changed_since": zip(days(_ITRACKER_DAYS)),
        "stale_project_issues": zip(ids(REPORT_PROJECTS),
                                    days(_ITRACKER_DAYS)),
        "issues_in_window": window(_ITRACKER_DAYS),
        "latest_issues_page": zip(days(_ITRACKER_DAYS)),
        "encounter_obs_display": zip(ids(REPORT_PATIENTS * 8)),
        "patient_encounter_list": zip(ids(REPORT_PATIENTS)),
        "patient_demographics": zip(ids(REPORT_PATIENTS)),
        "concept_class_listing": zip(ids(8)),
        "encounter_concept_numeric_report": zip(ids(REPORT_PATIENTS),
                                                values()),
        "encounters_in_period": window(_OPENMRS_DAYS),
        # A "high value" is one in the top quarter of the 0-199 range.
        "high_value_obs": zip(values(lowest=150)),
        "recent_visits_page": zip(days(_OPENMRS_DAYS)),
        "obs_value_band": [(lo, lo + width) for lo, width in zip(
            values(), ranked((5, 10, 20)))],
    }


REPORTS = (ITRACKER_REPORTS + ITRACKER_RANGE_REPORTS + OPENMRS_REPORTS
           + OPENMRS_RANGE_REPORTS)


def report_requests(seed):
    """One pass of dashboards; each is a tuple of ``(sql, params)``."""
    rng = random.Random(seed)
    parameters = report_parameters(rng, REPORT_PASS)
    columns = [[(sql, params) for params in parameters[name]]
               for name, sql, _ in REPORTS]
    return list(zip(*columns))


def _build_report_db(**options):
    db = Database("reports", **options)
    itracker.build_app(projects=REPORT_PROJECTS, db=db)
    openmrs.build_app(patients=REPORT_PATIENTS, db=db)
    return db


def _canonical(sql, rows):
    """Rows as compared with the reference: in order when the statement
    orders them, as a multiset otherwise."""
    if "ORDER BY" in sql.upper():
        return list(rows)
    return Counter(rows)


class Reports:
    """Report dashboards, one batch (one round trip) per dashboard, on a
    scaled-up database with the result cache at its default size.

    One untimed pass fills the result cache first.  A pass presents more
    distinct keys than the cache holds, so the LRU state after any pass is
    the same and every timed pass sees the same hits and misses.
    """

    fill_passes = 1

    def __init__(self, seed):
        self.requests = report_requests(seed)
        self.cost_model = CostModel()

    def build(self):
        self.db = self.server = None  # the last set-up's, freed first
        self.db = _build_report_db()
        self.server = DatabaseServer(self.db, self.cost_model)
        # Warm-up: each statement once, so first-use work is set-up.
        self.execute(self.requests[0])

    def references(self):
        reference_db = _build_report_db(optimizer_options=FROM_ORDER_OPTIONS,
                                        result_cache_size=0)
        reference = {}
        for dashboard in self.requests:
            for sql, params in dashboard:
                key = (sql, params)
                if key not in reference:
                    rows = reference_db.execute(sql, params).rows
                    reference[key] = _canonical(sql, rows)
        return reference

    def begin_pass(self):
        pass

    def execute(self, dashboard):
        # One connection (driver and SimClock) per dashboard, so virtual
        # times are exact rather than differences of a long-running clock.
        clock = SimClock()
        driver = TripCounter(BatchDriver(self.server, clock,
                                         self.cost_model))
        results = driver.execute_batch(list(dashboard))
        return Outcome(clock.now, clock.breakdown(), driver.round_trips,
                       results)

    def check(self, dashboard, outcome):
        if len(outcome.payload) != len(dashboard):
            return False
        return all(
            _canonical(sql, result.rows) == self.reference[(sql, params)]
            for (sql, params), result in zip(dashboard, outcome.payload))

    def end_pass(self):
        return 0

    def properties(self):
        return {
            "dashboards_per_pass": len(self.requests),
            "statements_per_dashboard": len(REPORTS),
        }


# -- tpcc-mixed -----------------------------------------------------------------

#: Transactions per pass and the standard TPC-C mix (percent).
TPCC_PASS = 600
TPCC_MIX = (("new_order", 45), ("payment", 43), ("order_status", 4),
            ("stock_level", 4), ("delivery", 4))
TPCC_TABLES = ("warehouse", "district", "customer", "history", "orders",
               "new_order", "order_line", "item", "stock")


def tpcc_requests(seed):
    """One pass of ``(transaction, index)`` pairs: the mix's counts are
    fixed, the order and each transaction's input index come from the
    seed."""
    rng = random.Random(seed)
    kinds = []
    for kind, percent in TPCC_MIX:
        kinds += [kind] * (TPCC_PASS * percent // 100)
    rng.shuffle(kinds)
    return [(kind, rng.randrange(1_000_000)) for kind in kinds]


def tpcc_state(db):
    """Every table's rows, as a multiset per table."""
    return {table: Counter(db.execute(f"SELECT * FROM {table}").rows)
            for table in TPCC_TABLES}


def tpcc_consistency_failures(db, next_o_id_before):
    """Failed TPC-C consistency conditions in ``db``.

    1. Each warehouse's ``w_ytd`` equals the sum of its districts' ``d_ytd``.
    2. Each district's ``d_next_o_id`` agrees with the orders New-Order
       created there: their count is ``d_next_o_id`` minus its value at the
       start of the pass, and the highest of their ``o_id`` (numbered
       ``d_id * 100000 + next_o_id``) is ``d_next_o_id - 1``.
    """
    failures = 0
    for w_id, w_ytd in db.execute(
            "SELECT w_id, w_ytd FROM warehouse").rows:
        d_ytd = db.execute(
            "SELECT SUM(d_ytd) FROM district WHERE d_w_id = ?",
            (w_id,)).rows[0][0]
        if abs(w_ytd - d_ytd) > 1e-6 * max(1.0, abs(w_ytd)):
            failures += 1
    for d_id, next_o_id in db.execute(
            "SELECT d_id, d_next_o_id FROM district").rows:
        base = d_id * 100000
        count, top = db.execute(
            "SELECT COUNT(*), MAX(o_id) FROM orders "
            "WHERE o_d_id = ? AND o_id >= ?", (d_id, base)).rows[0]
        created = next_o_id - next_o_id_before[d_id]
        if count != created or (created and top != base + next_o_id - 1):
            failures += 1
    return failures


class Tpcc:
    """The TPC-C mix through the Sloth client (Fig 13's zero-batching
    workload); every pass starts from a freshly seeded database, so each
    pass does the same work on the same data."""

    fill_passes = 0

    def __init__(self, seed):
        self.requests = tpcc_requests(seed)
        self.cost_model = CostModel()
        self.sloth = True

    def _fresh(self, sloth):
        db = Database()
        seed_tpcc(db)
        clock = SimClock()
        server = DatabaseServer(db, self.cost_model)
        if sloth:
            driver = TripCounter(BatchDriver(server, clock, self.cost_model))
            client = SlothClient(SlothRuntime(
                driver, clock, self.cost_model,
                optimizations=OptimizationFlags.all()))
        else:
            driver = TripCounter(Driver(server, clock, self.cost_model))
            client = OriginalClient(driver, clock, self.cost_model)
        return db, clock, driver, TpccRunner(client)

    def build(self):
        self.begin_pass()
        for kind, _ in TPCC_MIX:
            self.execute(next(r for r in self.requests if r[0] == kind))

    def references(self):
        # Reference: the final state of an original-mode replay.
        db, _, _, runner = self._fresh(sloth=False)
        for kind, index in self.requests:
            runner.run(kind, index)
        return tpcc_state(db)

    def begin_pass(self):
        # The last pass's database is freed before the next is built.
        self.db = self.clock = self.driver = self.runner = None
        self.db, self.clock, self.driver, self.runner = self._fresh(
            self.sloth)
        self.next_o_id = dict(self.db.execute(
            "SELECT d_id, d_next_o_id FROM district").rows)

    def execute(self, request):
        kind, index = request
        checkpoint = self.clock.checkpoint()
        trips_before = self.driver.round_trips
        self.runner.run(kind, index)
        elapsed, phases = self.clock.since(checkpoint)
        return Outcome(elapsed, phases,
                       self.driver.round_trips - trips_before, None)

    def check(self, request, outcome):
        return True  # checked per pass, on the database state

    def end_pass(self):
        failures = tpcc_consistency_failures(self.db, self.next_o_id)
        if tpcc_state(self.db) != self.reference:
            failures += 1
        return failures

    def properties(self):
        return {
            "transactions_per_pass": len(self.requests),
            "mix": dict(Counter(kind for kind, _ in self.requests)),
        }


def twin(workload):
    """``workload`` on its other side (see the module docstring), or None
    for reports, which has no eager twin."""
    if not hasattr(workload, "sloth"):
        return None
    other = copy.copy(workload)
    other.sloth = not workload.sloth
    return other


def make(name, seed):
    """The workload called ``name``, with its inputs made from ``seed``."""
    if name == "pages-sloth":
        return Pages(True, seed)
    if name == "pages-original":
        return Pages(False, seed)
    if name == "reports":
        return Reports(seed)
    if name == "tpcc-mixed":
        return Tpcc(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pages-sloth", "pages-original", "reports", "tpcc-mixed")
