// End-to-end benchmark driver. It builds one workload from a seed, drives
// the system only through its public entry points (api::Database,
// api::Session, api::Server, plus api/stages.h for the traced per-stage
// replays), checks every answer, and prints its raw measurements as one
// JSON document on stdout. perfbench/run.py turns them into the named
// metrics of BENCHMARK.json; see perfbench/README.md for what each
// workload and metric means.
//
//   perfbench_driver --workload yago-paper --seed 1 --seconds 10 --trace 0
//                    [--scale full|tiny] [--spans PATH]
//
// --trace 0 measures one window with no tracing. --trace 1 measures an
// untraced half window and then a traced half window (the tracing
// overhead is the difference) and writes the traced spans to --spans,
// one JSON object per line, when the run ends.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/database.h"
#include "api/server.h"
#include "api/stages.h"
#include "datasets/ldbc.h"
#include "datasets/workloads.h"
#include "datasets/yago.h"
#include "util/rng.h"

namespace gqopt {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<NodeId>>;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- Tracing -----------------------------------------------------------

/// One recorded interval. `request` groups the spans of one request;
/// `parent` is 0 for a root span.
struct Span {
  const char* name;
  uint64_t request;
  uint64_t id;
  uint64_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

std::atomic<uint64_t> g_next_span_id{1};

/// In-memory span recorder for one thread. Spans nest through the stack
/// of open scopes; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span: opens at construction, closes at destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request)
        : tracer_(tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      const std::vector<size_t>& open = tracer_->open_;
      uint64_t parent = open.empty() ? 0 : tracer_->spans_[open.back()].id;
      index_ = tracer_->spans_.size();
      tracer_->spans_.push_back(
          {name, request, g_next_span_id.fetch_add(1), parent, NowNs(), 0});
      tracer_->open_.push_back(index_);
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      tracer_->spans_[index_].end_ns = NowNs();
      tracer_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Renames the span once its outcome is known (e.g. cache hit/miss).
    void Rename(const char* name) {
      if (tracer_ != nullptr) tracer_->spans_[index_].name = name;
    }

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_
};

// ---- Measurements ------------------------------------------------------

/// Everything one measurement window records.
struct Window {
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> latency_ms;  // client-observed, per completed read
  std::vector<double> exec_ms;     // QueryResult::exec_seconds, per read
  std::vector<double> write_ms;    // AddNode+AddEdge pair, per write
  double exec_cpu_s = 0;           // process CPU inside traced Execute calls
  double exec_wall_s = 0;          // wall time of those calls
  uint64_t rows_processed = 0;
  uint64_t result_rows = 0;
  int64_t mem_peak_bytes = 0;
  double peak_rss_mb = 0;          // process peak resident set in the window
  api::PlanCacheStats cache_before, cache_after;
  api::ServerStats server_before, server_after;
};

/// Run-wide failure bookkeeping: every checked operation is attempted;
/// a non-OK status or a wrong answer is a failure, and a wrong answer is
/// also counted on its own (it makes the run incorrect, not just slow).
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::vector<std::string> messages;  // first few, for the report

  void Record(const Status& status, bool answer_ok, const std::string& what) {
    ++attempted;
    if (status.ok() && answer_ok) return;
    ++failed;
    if (status.ok()) ++wrong;
    if (messages.size() < 8) {
      messages.push_back(what + ": " +
                         (status.ok() ? "wrong answer" : status.ToString()));
    }
  }
  void Merge(Outcomes&& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
    for (std::string& m : other.messages) {
      if (messages.size() < 8) messages.push_back(std::move(m));
    }
  }
};

/// One distinct query of a workload: its reference row count and one
/// untimed-phase execution with the rewrite off (baseline) and on.
struct QueryRecord {
  std::string id;
  std::string text;
  size_t rows = 0;
  double baseline_ms = 0;
  double rewritten_ms = 0;
  bool reverted = false;
};

/// Per distinct query text profiled in the traced window.
struct ProfileTotals {
  size_t texts = 0;
  size_t reverted = 0;
  size_t closures_removed = 0;
  uint64_t closure_rows = 0;
  uint64_t join_rows = 0;
};

struct SetupTimes {
  std::vector<double> total_s, generate_s;
};

/// A conforming write: a fresh `source_label` node with one `edge_label`
/// edge to an existing node from `targets`.
struct WriteShape {
  const char* source_label;
  const char* edge_label;
  std::vector<NodeId> targets;
};

// ---- Workload configuration --------------------------------------------

enum class Kind { kYagoPaper, kLdbcPaper, kServeTopk, kMixedWrite };

struct Args {
  Kind kind = Kind::kYagoPaper;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
};

bool IsYago(Kind kind) { return kind != Kind::kLdbcPaper; }

/// Dataset size per workload: persons for the YAGO or LDBC generator.
size_t Persons(const Args& args) {
  switch (args.kind) {
    case Kind::kYagoPaper: return args.tiny ? 400 : 25000;
    case Kind::kLdbcPaper: return args.tiny ? 60 : 500;
    case Kind::kServeTopk: return args.tiny ? 200 : 2000;
    case Kind::kMixedWrite: return args.tiny ? 400 : 20000;
  }
  return 0;
}

/// Setups per run (setup_s is their median), timed in two batches: one
/// before the measurement windows and one after them, so the median spans
/// the run and not only its first seconds (the machine's speed drifts in
/// phases; see README.md, Noise). Per batch at least kMinSetups, more while
/// the batch takes under kSetupSeconds, at most kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 21;
constexpr double kSetupSeconds = 1.0;

/// The request-mix seed, kept apart from the generator seed (--seed
/// itself) so the two streams never correlate.
uint64_t MixSeed(const Args& args) {
  return args.seed * 0x9E3779B97F4A7C15ULL + 17;
}

// ---- Setup -------------------------------------------------------------

void CollectAllStats(const api::Database& db, const api::Snapshot& snap) {
  for (const std::string& label : db.schema().edge_labels()) {
    snap.catalog().stats().EdgeFor(label);
  }
}

/// Generates the dataset, opens the Database, builds the first snapshot
/// and collects its statistics: everything before the first query.
std::unique_ptr<api::Database> SetupOnce(const Args& args, Tracer* tracer,
                                         SetupTimes* times) {
  const uint64_t request = 0;
  int64_t start = NowNs();
  GraphSchema schema;
  PropertyGraph graph;
  {
    Tracer::Scope span(tracer, "datasets.generate", request);
    if (IsYago(args.kind)) {
      schema = YagoSchema();
      graph = GenerateYago({.persons = Persons(args), .seed = args.seed});
    } else {
      schema = LdbcSchema();
      graph = GenerateLdbc({.persons = Persons(args), .seed = args.seed});
    }
  }
  times->generate_s.push_back(SecondsSince(start));
  std::unique_ptr<api::Database> db;
  {
    Tracer::Scope span(tracer, "api.open", request);
    db = std::make_unique<api::Database>(std::move(schema), std::move(graph));
  }
  api::SnapshotPtr snap;
  {
    Tracer::Scope span(tracer, "api.snapshot", request);
    snap = db->snapshot();
  }
  {
    Tracer::Scope span(tracer, "stats.collect", request);
    CollectAllStats(*db, *snap);
  }
  times->total_s.push_back(SecondsSince(start));
  return db;
}

std::unique_ptr<api::Database> Setup(const Args& args, Tracer* tracer,
                                     SetupTimes* times) {
  std::unique_ptr<api::Database> db;
  int64_t start = NowNs();
  auto more = [&](int done) {
    if (args.tiny) return done < 1;
    return done < kMinSetups ||
           (done < kMaxSetups && SecondsSince(start) < kSetupSeconds);
  };
  for (int i = 0; more(i); ++i) {
    db.reset();  // free the previous copy before building the next
    db = SetupOnce(args, tracer, times);
  }
  return db;
}

/// Returns the heap's free pages to the kernel and resets its peak-
/// resident-set mark to the current resident set, so the next PeakRssMb()
/// covers only what runs after this call, from live data up (not from
/// whatever the untimed checks left cached in the allocator).
void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident set (VmHWM) in MiB, or 0 when it cannot be read.
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// ---- Request helpers ---------------------------------------------------

api::ExecOptions BaselineOptions() {
  api::ExecOptions options;
  options.apply_schema_rewrite = false;
  options.timeout_ms = 0;  // the reference must finish, however slow
  return options;
}

/// One read through a Session. Untraced it is exactly Session::Query;
/// traced it is the same two calls (Prepare, then Execute) with a span
/// around each under one root.
Result<api::QueryResult> SessionRead(const api::Session& session,
                                     const std::string& text, Tracer* tracer,
                                     uint64_t request, Window* window) {
  if (!tracer->enabled()) return session.Query(text);
  Tracer::Scope root(tracer, "session.query", request);
  api::PreparedQueryPtr prepared;
  {
    Tracer::Scope span(tracer, "api.prepare_hit", request);
    bool hit = false;
    auto result = session.Prepare(text, &hit);
    if (!hit) span.Rename("api.prepare_miss");
    if (!result.ok()) return result.status();
    prepared = std::move(result).value();
  }
  Tracer::Scope span(tracer, "api.execute", request);
  double cpu0 = ProcessCpuSeconds();
  int64_t t0 = NowNs();
  auto result = prepared->Execute(session);
  window->exec_wall_s += SecondsSince(t0);
  window->exec_cpu_s += ProcessCpuSeconds() - cpu0;
  return result;
}

void RecordRead(const api::QueryResult& result, double latency_ms,
                Window* window) {
  window->latency_ms.push_back(latency_ms);
  window->exec_ms.push_back(result.exec_seconds * 1e3);
  window->rows_processed += result.rows_processed;
  window->result_rows += result.rows();
  window->mem_peak_bytes = std::max(window->mem_peak_bytes,
                                    result.mem_peak_bytes);
}

/// Traced only: runs every layer of one query text once more under its
/// own spans — a cache-bypassing and a cached Prepare, the four pipeline
/// stages of api/stages.h, and Executor::Run for per-operator row counts.
void Profile(const api::Database& db, const api::ExecOptions& options,
             const std::string& text, Tracer* tracer, uint64_t request,
             ProfileTotals* totals, Outcomes* outcomes) {
  Tracer::Scope root(tracer, "profile", request);
  api::ExecOptions bypass = options;
  bypass.use_plan_cache = false;
  api::PreparedQueryPtr prepared;
  {
    Tracer::Scope span(tracer, "api.prepare_miss", request);
    auto result = db.Prepare(text, bypass);
    outcomes->Record(result.status(), true, "profile prepare " + text);
    if (!result.ok()) return;
    prepared = std::move(result).value();
  }
  {
    Tracer::Scope span(tracer, "api.prepare_hit", request);
    bool hit = false;
    auto result = db.Prepare(text, options, &hit);
    if (!hit) span.Rename("api.prepare_miss");
  }
  api::SnapshotPtr snap = db.snapshot();
  Ucqt query;
  {
    Tracer::Scope span(tracer, "query.parse", request);
    auto parsed = ParseUcqt(text);
    outcomes->Record(parsed.status(), true, "profile parse " + text);
    if (!parsed.ok()) return;
    query = std::move(parsed).value();
  }
  RewriteResult rewrite;
  {
    Tracer::Scope span(tracer, "core.rewrite", request);
    auto rewritten = RewriteQuery(query, snap->schema());
    outcomes->Record(rewritten.status(), true, "profile rewrite " + text);
    if (!rewritten.ok()) return;
    rewrite = std::move(rewritten).value();
  }
  RaExprPtr plan;
  {
    Tracer::Scope span(tracer, "ra.translate", request);
    auto translated = UcqtToRa(rewrite.reverted ? query : rewrite.query);
    outcomes->Record(translated.status(), true, "profile translate " + text);
    if (!translated.ok()) return;
    plan = std::move(translated).value();
  }
  {
    Tracer::Scope span(tracer, "ra.optimize", request);
    plan = OptimizePlan(plan, snap->catalog(), options.ToOptimizerOptions());
  }
  {
    Tracer::Scope span(tracer, "ra.executor_run", request);
    Executor executor(snap->catalog());
    auto table = executor.Run(prepared->plan(), options.MakeExecContext());
    outcomes->Record(table.status(), true, "profile executor run " + text);
    for (const auto& [node, rows] : executor.actual_rows()) {
      if (node->op() == RaOp::kTransitiveClosure) totals->closure_rows += rows;
      if (node->op() == RaOp::kJoin) totals->join_rows += rows;
    }
  }
  ++totals->texts;
  totals->reverted += prepared->rewrite().reverted ? 1 : 0;
  totals->closures_removed += prepared->rewrite().stats.eliminated_closures();
}

/// One conforming AddNode+AddEdge pair, timed as a pair. Returns the
/// edge insert's status.
Status WritePair(api::Database* db, const WriteShape& shape, NodeId target,
                 Tracer* tracer, uint64_t request, Window* window) {
  Tracer::Scope root(tracer, "api.write", request);
  int64_t t0 = NowNs();
  NodeId node;
  {
    Tracer::Scope span(tracer, "api.add_node", request);
    node = db->AddNode(shape.source_label);
  }
  Status status;
  {
    Tracer::Scope span(tracer, "api.add_edge", request);
    status = db->AddEdge(node, shape.edge_label, target);
  }
  window->write_ms.push_back(SecondsSince(t0) * 1e3);
  return status;
}

/// Traced only: the snapshot rebuild and statistics collection a write
/// leaves to the next reader, made explicit so each gets its own span.
void RebuildTraced(const api::Database& db, Tracer* tracer,
                   uint64_t request) {
  api::SnapshotPtr snap;
  {
    Tracer::Scope span(tracer, "api.snapshot", request);
    snap = db.snapshot();
  }
  Tracer::Scope span(tracer, "stats.collect", request);
  CollectAllStats(db, *snap);
}

// ---- Paper workloads (yago-paper, ldbc-paper) --------------------------

std::vector<QueryRecord> PaperQueries(Kind kind) {
  std::vector<QueryRecord> queries;
  for (const WorkloadQuery& q :
       kind == Kind::kYagoPaper ? YagoWorkload() : LdbcWorkload()) {
    queries.push_back({.id = q.id, .text = q.text});
  }
  return queries;
}

/// Untimed check, once per run: every query with the default options
/// (which also warms the plan cache) against the same query with the
/// rewrite off. On a conforming graph Theorem 1 makes them equal. Returns
/// the baseline answers.
std::vector<Rows> ReferencePass(const api::Database& db,
                                std::vector<QueryRecord>* queries,
                                Outcomes* outcomes) {
  api::Session session(db);
  api::Session baseline(db, BaselineOptions());
  std::vector<Rows> answers;
  for (QueryRecord& q : *queries) {
    auto rewritten = session.Query(q.text);
    auto reference = baseline.Query(q.text);
    Status status = rewritten.ok() ? reference.status() : rewritten.status();
    Rows answer = reference.ok() ? reference->SortedRows() : Rows();
    outcomes->Record(status,
                     status.ok() && rewritten->SortedRows() == answer,
                     "reference " + q.id);
    if (rewritten.ok()) {
      q.rows = rewritten->rows();
      q.rewritten_ms = rewritten->exec_seconds * 1e3;
    }
    if (reference.ok()) q.baseline_ms = reference->exec_seconds * 1e3;
    if (auto prepared = session.Prepare(q.text); prepared.ok()) {
      q.reverted = (*prepared)->rewrite().reverted;
    }
    answers.push_back(std::move(answer));
  }
  return answers;
}

/// Passes a paper workload runs at least, so that a slow machine still
/// yields enough samples for the same tail percentile: 56 passes of the 18
/// YAGO queries are 1008 samples, enough for p99; 6 passes of the 30 LDBC
/// queries are 180, enough for p90.
int MinPasses(Kind kind) { return kind == Kind::kYagoPaper ? 56 : 6; }

/// Closed loop, one Session: whole passes over the queries until the
/// window has run out, so every query weighs the same in every run.
void PaperWindow(const api::Database& db, Kind kind,
                 const std::vector<QueryRecord>& queries, double seconds,
                 Tracer* tracer, uint64_t* request,
                 std::unordered_set<std::string>* profiled,
                 ProfileTotals* totals, Window* window, Outcomes* outcomes) {
  api::Session session(db);
  int64_t start = NowNs();
  for (int pass = 0; pass < MinPasses(kind) || SecondsSince(start) < seconds;
       ++pass) {
    for (const QueryRecord& q : queries) {
      uint64_t req = ++*request;
      int64_t t0 = NowNs();
      auto result = SessionRead(session, q.text, tracer, req, window);
      double ms = SecondsSince(t0) * 1e3;
      bool ok = result.ok() && result->rows() == q.rows;
      outcomes->Record(result.status(), ok, q.id);
      if (ok) RecordRead(*result, ms, window);
      if (tracer->enabled() && profiled->insert(q.text).second) {
        Profile(db, session.options(), q.text, tracer, req, totals, outcomes);
      }
    }
  }
}

// ---- serve-topk ---------------------------------------------------------

/// Distinct `k` values; more than the default plan-cache capacity (256),
/// so a skewed draw over them makes hits, misses and evictions.
constexpr uint64_t kTopkValues = 400;
/// One client: each request already crosses two threads (client and
/// server worker). A second client keeps four threads busy on a 4-vCPU
/// machine, and the host's own load then moves throughput by up to 31%
/// and the tail by up to 78% across runs (quartile distance over median).
constexpr int kServeClients = 1;
/// Untimed requests before the first window, so the plan cache holds its
/// steady mix of hits and misses when timing starts.
constexpr double kServeWarmupSeconds = 1.0;

/// The serve-topk requests are `<template> order by x1 limit k`: the 18
/// YAGO queries plus 2-hop paths. Each served answer must equal the
/// first k rows of the template's full baseline answer (sorted rows:
/// `order by x1` breaks ties on x2).
std::vector<QueryRecord> ServeTemplates() {
  std::vector<QueryRecord> templates = PaperQueries(Kind::kYagoPaper);
  for (const char* path :
       {"owns/isLocatedIn", "livesIn/isLocatedIn", "wasBornIn/isLocatedIn",
        "isMarriedTo/livesIn", "hasChild/owns", "influences/livesIn"}) {
    std::string text = std::string("x1, x2 <- (x1, ") + path + ", x2)";
    templates.push_back({.id = path, .text = text});
  }
  return templates;
}

bool MatchesPrefix(const Table& table, const Rows& answer, size_t k) {
  size_t expected = std::min<size_t>(k, answer.size());
  if (table.rows() != expected || table.arity() != 2) return false;
  for (size_t r = 0; r < expected; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      if (table.At(r, c) != answer[r][c]) return false;
    }
  }
  return true;
}

/// Closed loop: kServeClients threads, each blocking on Server::Query.
void ServeWindow(const api::Database& db, api::Server* server,
                 const std::vector<QueryRecord>& templates,
                 const std::vector<Rows>& answers, uint64_t mix_seed,
                 double seconds, bool traced, std::atomic<uint64_t>* request,
                 std::vector<std::unique_ptr<Tracer>>* tracers,
                 ProfileTotals* totals,
                 std::unordered_set<std::string>* profiled, Window* window,
                 Outcomes* outcomes) {
  std::mutex mu;  // guards window, outcomes, totals, profiled
  api::ExecOptions options;
  int64_t start = NowNs();
  size_t first_tracer = tracers->size();
  for (int i = 0; i < kServeClients; ++i) {
    tracers->push_back(std::make_unique<Tracer>(traced));
  }
  auto client = [&](int index) {
    Tracer* tracer = (*tracers)[first_tracer + index].get();
    Rng rng(mix_seed + static_cast<uint64_t>(index));
    Window local;
    Outcomes local_outcomes;
    ProfileTotals local_totals;
    while (SecondsSince(start) < seconds) {
      size_t pick = rng.Uniform(templates.size());
      uint64_t k = 1 + rng.Skewed(kTopkValues);
      std::string text =
          templates[pick].text + " order by x1 limit " + std::to_string(k);
      uint64_t req = request->fetch_add(1) + 1;
      int64_t t0 = NowNs();
      api::Server::Response response;
      {
        Tracer::Scope root(tracer, "server.query", req);
        response = server->Query(text, options);
      }
      double ms = SecondsSince(t0) * 1e3;
      bool ok = response.result.ok() &&
                MatchesPrefix(response.result->table, answers[pick], k);
      local_outcomes.Record(response.result.status(), ok, text);
      if (ok) RecordRead(*response.result, ms, &local);
      if (traced) {
        bool first;
        {
          std::lock_guard<std::mutex> lock(mu);
          first = profiled->insert(text).second;
        }
        if (first) {
          Profile(db, options, text, tracer, req, &local_totals,
                  &local_outcomes);
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    window->latency_ms.insert(window->latency_ms.end(),
                              local.latency_ms.begin(), local.latency_ms.end());
    window->exec_ms.insert(window->exec_ms.end(), local.exec_ms.begin(),
                           local.exec_ms.end());
    window->rows_processed += local.rows_processed;
    window->result_rows += local.result_rows;
    window->mem_peak_bytes =
        std::max(window->mem_peak_bytes, local.mem_peak_bytes);
    outcomes->Merge(std::move(local_outcomes));
    totals->texts += local_totals.texts;
    totals->reverted += local_totals.reverted;
    totals->closures_removed += local_totals.closures_removed;
    totals->closure_rows += local_totals.closure_rows;
    totals->join_rows += local_totals.join_rows;
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kServeClients; ++i) threads.emplace_back(client, i);
  for (std::thread& t : threads) t.join();
}

// ---- mixed-write --------------------------------------------------------

/// A read of mixed-write and how much each kind of write grows it.
struct MixedRead {
  std::string text;
  bool owns = false;      // grown by `owns` writes, else by `livesIn` ones
  bool closure = false;   // ends in isLocatedIn+: grows by the reach count
  size_t expected_rows = 0;
};

/// Per node, how many nodes isLocatedIn+ reaches from it, walked directly
/// over the generated graph (independent of the query engine).
std::unordered_map<NodeId, size_t> LocatedInReach(const PropertyGraph& graph) {
  std::unordered_map<NodeId, std::vector<NodeId>> out;
  for (const Edge& e : graph.EdgesByLabel("isLocatedIn")) {
    out[e.first].push_back(e.second);
  }
  std::unordered_map<NodeId, size_t> reach;
  for (const auto& [source, unused] : out) {
    std::set<NodeId> seen;
    std::vector<NodeId> stack = {source};
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      auto it = out.find(n);
      if (it == out.end()) continue;
      for (NodeId m : it->second) {
        if (seen.insert(m).second) stack.push_back(m);
      }
    }
    reach[source] = seen.size();
  }
  return reach;
}

std::vector<MixedRead> MixedReads() {
  return {{"x1, x2 <- (x1, owns, x2)", true, false},
          {"x1, x2 <- (x1, owns/isLocatedIn+, x2)", true, true},
          {"x1, x2 <- (x1, livesIn, x2)", false, false},
          {"x1, x2 <- (x1, livesIn/isLocatedIn+, x2)", false, true}};
}

/// Indices into MixedReads(), in the order the rounds read them: each
/// closure read takes a third of the rounds and the two plain reads share
/// the last third. The plain reads are about as fast as each other and
/// faster than the closure reads, so with four equal shares the median
/// read latency sat on the edge between two reads and moved by up to 23%
/// between runs; with thirds it lies inside the middle read's samples.
constexpr size_t kMixedSchedule[] = {0, 1, 3, 2, 1, 3};

/// Rounds a mixed-write window runs at least: 1008 reads are enough for
/// p99, so the tail does not switch between p90 and p99 with the speed of
/// the machine (a 20 s window holds 800 to 1200 reads).
constexpr size_t kMixedMinRounds = 1008;

/// Closed loop, one Session: each round is one conforming write pair
/// (a new PERSON that owns a PROPERTY or lives in a CITY) followed by one
/// read, which must have grown by exactly the rows the writes inserted.
void MixedWindow(api::Database* db, std::vector<MixedRead>* reads,
                 const WriteShape& owns, const WriteShape& lives,
                 const std::unordered_map<NodeId, size_t>& reach, Rng* rng,
                 double seconds, Tracer* tracer, uint64_t* request,
                 std::unordered_set<std::string>* profiled,
                 ProfileTotals* totals, Window* window, Outcomes* outcomes) {
  api::Session session(*db);
  int64_t start = NowNs();
  for (size_t round = 0;
       round < kMixedMinRounds || SecondsSince(start) < seconds; ++round) {
    uint64_t req = ++*request;
    bool is_owns = rng->Chance(0.5);
    const WriteShape& shape = is_owns ? owns : lives;
    NodeId target = rng->Pick(shape.targets);
    Status written = WritePair(db, shape, target, tracer, req, window);
    outcomes->Record(written, true, "write");
    if (written.ok()) {
      for (MixedRead& r : *reads) {
        if (r.owns != is_owns) continue;
        auto it = reach.find(target);
        r.expected_rows += r.closure ? (it == reach.end() ? 0 : it->second) : 1;
      }
    }
    MixedRead& read =
        (*reads)[kMixedSchedule[round % std::size(kMixedSchedule)]];
    // Traced, the rebuild a write leaves behind gets its own spans; it
    // stays inside the read's latency either way.
    int64_t t0 = NowNs();
    if (tracer->enabled()) RebuildTraced(*db, tracer, req);
    auto result = SessionRead(session, read.text, tracer, req, window);
    double ms = SecondsSince(t0) * 1e3;
    bool read_ok = result.ok() && result->rows() == read.expected_rows;
    outcomes->Record(result.status(), read_ok, read.text);
    if (read_ok) RecordRead(*result, ms, window);
    if (tracer->enabled() && profiled->insert(read.text).second) {
      Profile(*db, session.options(), read.text, tracer, req, totals, outcomes);
    }
  }
}

// ---- Output -------------------------------------------------------------

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Array(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Number(values[i]);
  }
  return out + "]";
}

std::string CacheJson(const api::PlanCacheStats& before,
                      const api::PlanCacheStats& after) {
  return "{\"hits\":" + std::to_string(after.hits - before.hits) +
         ",\"misses\":" + std::to_string(after.misses - before.misses) +
         ",\"evictions\":" +
         std::to_string(after.evictions - before.evictions) +
         ",\"invalidations\":" +
         std::to_string(after.invalidations - before.invalidations) + "}";
}

std::string ServerJson(const api::ServerStats& before,
                       const api::ServerStats& after) {
  auto d = [](uint64_t a, uint64_t b) { return std::to_string(a - b); };
  return "{\"admitted\":" + d(after.admitted, before.admitted) +
         ",\"completed\":" + d(after.completed, before.completed) +
         ",\"shed\":" +
         std::to_string((after.shed_queue_full - before.shed_queue_full) +
                        (after.shed_deadline - before.shed_deadline) +
                        (after.shed_memory - before.shed_memory)) +
         ",\"degraded\":" + d(after.degraded, before.degraded) + "}";
}

std::string WindowJson(const Window& w) {
  return "{\"traced\":" + std::string(w.traced ? "true" : "false") +
         ",\"wall_s\":" + Number(w.wall_s) + ",\"cpu_s\":" + Number(w.cpu_s) +
         ",\"latency_ms\":" + Array(w.latency_ms) +
         ",\"exec_ms\":" + Array(w.exec_ms) +
         ",\"write_ms\":" + Array(w.write_ms) +
         ",\"exec_cpu_s\":" + Number(w.exec_cpu_s) +
         ",\"exec_wall_s\":" + Number(w.exec_wall_s) +
         ",\"rows_processed\":" + std::to_string(w.rows_processed) +
         ",\"result_rows\":" + std::to_string(w.result_rows) +
         ",\"mem_peak_bytes\":" + std::to_string(w.mem_peak_bytes) +
         ",\"peak_rss_mb\":" + Number(w.peak_rss_mb) +
         ",\"cache\":" + CacheJson(w.cache_before, w.cache_after) +
         ",\"server\":" + ServerJson(w.server_before, w.server_after) + "}";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The plan-affecting fields of the default ExecOptions, in the order the
/// plan cache keys on them.
std::string PlanFingerprint(const api::ExecOptions& o) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "r%d p%d jr%d fs%d dop%d pb%lld ss%d lm%d",
                o.apply_schema_rewrite ? 1 : 0, static_cast<int>(o.planner),
                o.enable_join_reorder ? 1 : 0,
                o.enable_fixpoint_seeding ? 1 : 0,
                o.dop, static_cast<long long>(o.planning_budget_ms),
                o.allow_stale_statistics ? 1 : 0, o.low_memory ? 1 : 0);
  return buf;
}

bool WriteSpans(const std::string& path,
                const std::vector<const std::vector<Span>*>& all) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const std::vector<Span>* spans : all) {
    for (const Span& s : *spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"request\":%llu,\"id\":%llu,"
                   "\"parent\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// ---- Main ---------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args->tiny = value == "tiny";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  static const std::map<std::string, Kind> kKinds = {
      {"yago-paper", Kind::kYagoPaper},
      {"ldbc-paper", Kind::kLdbcPaper},
      {"serve-topk", Kind::kServeTopk},
      {"mixed-write", Kind::kMixedWrite}};
  auto it = kKinds.find(args->workload);
  if (it == kKinds.end() || !(args->seconds > 0)) return false;
  if (args->trace && args->spans_path.empty()) return false;
  args->kind = it->second;
  return true;
}

WriteShape ProbeShape(const api::Database& db, Kind kind) {
  if (kind == Kind::kLdbcPaper) {
    return {"Person", "isLocatedIn", db.graph().NodesWithLabel("Place")};
  }
  return {"PERSON", "livesIn", db.graph().NodesWithLabel("CITY")};
}

int Run(const Args& args) {
  Tracer tracer(args.trace);
  SetupTimes setup;
  std::unique_ptr<api::Database> db = Setup(args, &tracer, &setup);
  Outcomes outcomes;
  ProfileTotals totals;
  std::unordered_set<std::string> profiled;
  std::vector<QueryRecord> queries;
  std::vector<std::unique_ptr<Tracer>> client_tracers;
  uint64_t request = 0;
  Rng rng(MixSeed(args));
  const uint64_t nodes = db->graph().num_nodes();
  const uint64_t edges = db->graph().num_edges();

  // Untimed preparation: reference answers (and a warm plan cache).
  std::vector<Rows> answers;
  std::vector<MixedRead> reads;
  std::unordered_map<NodeId, size_t> reach;
  WriteShape owns, lives;
  std::unique_ptr<api::Server> server;
  switch (args.kind) {
    case Kind::kYagoPaper:
    case Kind::kLdbcPaper:
      queries = PaperQueries(args.kind);
      ReferencePass(*db, &queries, &outcomes);
      break;
    case Kind::kServeTopk:
      queries = ServeTemplates();
      answers = ReferencePass(*db, &queries, &outcomes);
      server = std::make_unique<api::Server>(*db);
      {
        Window warmup;
        std::atomic<uint64_t> next{request};
        ServeWindow(*db, server.get(), queries, answers, MixSeed(args) + 999,
                    kServeWarmupSeconds, /*traced=*/false, &next,
                    &client_tracers, &totals, &profiled, &warmup, &outcomes);
        request = next.load();
      }
      break;
    case Kind::kMixedWrite: {
      reads = MixedReads();
      for (const MixedRead& r : reads) {
        queries.push_back({.id = r.text, .text = r.text});
      }
      ReferencePass(*db, &queries, &outcomes);
      for (size_t i = 0; i < reads.size(); ++i) {
        reads[i].expected_rows = queries[i].rows;
      }
      reach = LocatedInReach(db->graph());
      owns = {"PERSON", "owns", db->graph().NodesWithLabel("PROPERTY")};
      lives = {"PERSON", "livesIn", db->graph().NodesWithLabel("CITY")};
      break;
    }
  }

  // Measurement: one untraced window, plus a traced one under --trace 1.
  std::vector<Window> windows(args.trace ? 2 : 1);
  for (size_t i = 0; i < windows.size(); ++i) {
    Window& w = windows[i];
    w.traced = i == 1;
    tracer.set_enabled(w.traced);
    double seconds = args.trace ? args.seconds / 2 : args.seconds;
    w.cache_before = db->plan_cache_stats();
    if (server) w.server_before = server->stats();
    ResetPeakRss();
    double cpu0 = ProcessCpuSeconds();
    int64_t start = NowNs();
    switch (args.kind) {
      case Kind::kYagoPaper:
      case Kind::kLdbcPaper:
        PaperWindow(*db, args.kind, queries, seconds, &tracer, &request,
                    &profiled, &totals, &w, &outcomes);
        break;
      case Kind::kServeTopk: {
        std::atomic<uint64_t> next{request};
        ServeWindow(*db, server.get(), queries, answers,
                    MixSeed(args) + 1000 * i, seconds, w.traced, &next,
                    &client_tracers, &totals, &profiled, &w, &outcomes);
        request = next.load();
        break;
      }
      case Kind::kMixedWrite:
        MixedWindow(db.get(), &reads, owns, lives, reach, &rng, seconds,
                    &tracer, &request, &profiled, &totals, &w, &outcomes);
        break;
    }
    w.wall_s = SecondsSince(start);
    w.cpu_s = ProcessCpuSeconds() - cpu0;
    w.peak_rss_mb = PeakRssMb();
    w.cache_after = db->plan_cache_stats();
    if (server) w.server_after = server->stats();
  }
  tracer.set_enabled(args.trace);
  Setup(args, &tracer, &setup);  // the second batch; its copy is dropped

  // Traced only: a short write probe, so write and rebuild costs are
  // measured on every dataset (mixed-write already wrote in its window).
  Window probe;
  if (args.trace && args.kind != Kind::kMixedWrite) {
    server.reset();  // no requests in flight while the probe writes
    WriteShape shape = ProbeShape(*db, args.kind);
    for (int i = 0; i < 5; ++i) {
      uint64_t req = ++request;
      Status written = WritePair(db.get(), shape, rng.Pick(shape.targets),
                                 &tracer, req, &probe);
      outcomes.Record(written, true, "probe write");
      RebuildTraced(*db, &tracer, req);
    }
  }
  server.reset();

  if (args.trace) {
    std::vector<const std::vector<Span>*> all = {&tracer.spans()};
    for (const auto& t : client_tracers) all.push_back(&t->spans());
    if (!WriteSpans(args.spans_path, all)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
      return 1;
    }
  }

  inc::DeltaStats delta = db->delta_stats();
  api::ExecOptions defaults;
  api::ServerOptions server_defaults;

  std::string out = "{";
  out += "\"context\":{\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":" + Quote(Compiler()) +
         ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE) +
         ",\"default_dop\":" + std::to_string(defaults.dop) +
         ",\"plan_fingerprint\":" + Quote(PlanFingerprint(defaults)) +
         ",\"timeout_ms\":" + std::to_string(defaults.timeout_ms) +
         ",\"server_workers\":" + std::to_string(server_defaults.workers) +
         ",\"server_queue\":" + std::to_string(server_defaults.queue_capacity) +
         ",\"persons\":" + std::to_string(Persons(args)) +
         ",\"nodes\":" + std::to_string(nodes) +
         ",\"edges\":" + std::to_string(edges) + "},";
  out += "\"setup\":{\"total_s\":" + Array(setup.total_s) +
         ",\"generate_s\":" + Array(setup.generate_s) + "},";
  out += "\"windows\":[";
  for (size_t i = 0; i < windows.size(); ++i) {
    if (i > 0) out += ",";
    out += WindowJson(windows[i]);
  }
  out += "],\"probe_write_ms\":" + Array(probe.write_ms);
  out += ",\"queries\":[";
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryRecord& q = queries[i];
    if (i > 0) out += ",";
    out += "{\"id\":" + Quote(q.id) + ",\"rows\":" + std::to_string(q.rows) +
           ",\"baseline_ms\":" + Number(q.baseline_ms) +
           ",\"rewritten_ms\":" + Number(q.rewritten_ms) +
           ",\"reverted\":" + (q.reverted ? "true" : "false") + "}";
  }
  out += "],\"profile\":{\"texts\":" + std::to_string(totals.texts) +
         ",\"reverted\":" + std::to_string(totals.reverted) +
         ",\"closures_removed\":" + std::to_string(totals.closures_removed) +
         ",\"closure_rows\":" + std::to_string(totals.closure_rows) +
         ",\"join_rows\":" + std::to_string(totals.join_rows) + "}";
  out += ",\"delta\":{\"pending_rows\":" +
         std::to_string(delta.pending_nodes + delta.pending_edges) +
         ",\"compactions\":" + std::to_string(delta.compactions) + "}";
  out += ",\"attempted\":" + std::to_string(outcomes.attempted) +
         ",\"failed\":" + std::to_string(outcomes.failed) +
         ",\"wrong\":" + std::to_string(outcomes.wrong) + ",\"failures\":[";
  for (size_t i = 0; i < outcomes.messages.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(outcomes.messages[i]);
  }
  out += "]}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace gqopt

int main(int argc, char** argv) {
  gqopt::perfbench::Args args;
  if (argc % 2 != 1 || !gqopt::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload yago-paper|ldbc-paper|serve-topk|"
                 "mixed-write --seed N --seconds S --trace 0|1 "
                 "[--scale full|tiny] [--spans PATH]\n",
                 argv[0]);
    return 2;
  }
  return gqopt::perfbench::Run(args);
}
