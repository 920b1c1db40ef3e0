// The end-to-end VerdictDB benchmark: one client in a closed loop over one
// of three workloads (verdict33, exact33, ingest), every output checked.
// README.md gives the workloads, metrics and checks; run.py builds this
// program and passes its own arguments through:
//
//   vdbbench --workload <verdict33|exact33|ingest> --seed <n> --seconds <s>
//            --trace <0|1> [--quick] [--git <sha>] [--trace-out <file>]
//
// The last line of standard output is the result object; the lines before
// it are the run envelope and the metrics table. Failed checks are listed
// on standard error.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/hash.h"
#include "core/flattener.h"
#include "core/query_classifier.h"
#include "engine/kernels/kernels.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/queries.h"

#ifndef VDBBENCH_COMPILER
#define VDBBENCH_COMPILER "unknown"
#endif
#ifndef VDBBENCH_BUILD_TYPE
#define VDBBENCH_BUILD_TYPE "unknown"
#endif

namespace vdbbench {
namespace {

using vdb::engine::ResultSet;
using ExecInfo = vdb::core::VerdictContext::ExecInfo;

constexpr double kScale = 0.8;
constexpr int kSetupReps = 5;
// Ingest batches: 4 of 24000 rows (5% of lineitem each), cut from a staged
// lineitem of about 120K rows. An ingest epoch appends each once, so that
// lineitem grows by 20%, the share examples/accuracy_contract.cpp appends in
// one batch; it then puts lineitem and its scrambles back, untimed, so that
// every epoch measures the same growth. At 24000 rows the per-call cost of
// AppendData (about 2.4 ms) is under a fifth of a warm append.
constexpr int kBatchRows = 24000;
constexpr int kBatches = 4;
// A round of a read-only workload is one pass and then this many ingest
// epochs (about a fifth of the round), so that every workload reports every
// metric and every run attempts whole rounds of the same operations.
constexpr int kVerdictEpochsPerRound = 1;
constexpr int kExactEpochsPerRound = 4;
// Accuracy is measured over this many draws of the uniform scrambles (the
// hashed ones are a function of the fixed data): the geometric mean of one
// draw moves by about 13% between seeds.
constexpr int kAccuracyDraws = 16;
// Relative errors are floored at 0.01% (below the paper's smallest reported
// error, 0.03%) before the geometric mean: count(*) over a hashed scramble
// is exact up to rounding, and log(0) has no mean.
constexpr double kErrFloor = 1e-4;
// The full-scramble check runs on fixed inputs, so the set of queries it
// finds faulty does not depend on --seed.
constexpr uint64_t kFullScrambleSeed = 20180610;
constexpr double kFullScrambleScale = 0.2;
// The calibration kernel's median CPU time on the machine the reference
// figures in README.md come from (a shared 4-vCPU x86-64 VM, AVX2). The
// end-to-end times are reported at that speed: each is multiplied by this
// over the run's own median, which undoes a host that runs every instruction
// slower for minutes at a time (whole runs moved together by up to 45%).
constexpr double kReferenceCalibrationMs = 4.5;
// Calibration samples per round of the loop (and one per set-up).
constexpr int kCalibrationsPerRound = 3;
constexpr const char* kFreshSql =
    "select count(*) as cnt, avg(l_extendedprice) as avg_price from lineitem";

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// The counts a Binomial(n, p) variable takes with a tail probability above
// 5e-11 on either side (memoized: a run asks for few distinct n and p).
std::pair<uint64_t, uint64_t> BinomialRange(uint64_t n, double p) {
  static std::map<std::pair<uint64_t, double>, std::pair<uint64_t, uint64_t>>
      memo;
  auto it = memo.find({n, p});
  if (it != memo.end()) return it->second;
  const double alpha = 5e-11;
  auto log_pmf = [&](uint64_t k) {
    const double kd = static_cast<double>(k), nd = static_cast<double>(n);
    return std::lgamma(nd + 1) - std::lgamma(kd + 1) - std::lgamma(nd - kd + 1) +
           kd * std::log(p) + (nd - kd) * std::log1p(-p);
  };
  uint64_t lo = 0, hi = n;
  for (double tail = 0.0; lo < n; ++lo) {
    tail += std::exp(log_pmf(lo));
    if (tail > alpha) break;
  }
  for (double tail = 0.0; hi > 0; --hi) {
    tail += std::exp(log_pmf(hi));
    if (tail > alpha) break;
  }
  return memo[{n, p}] = {lo, hi};
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = -1.0;
  bool trace = false;
  bool quick = false;
  std::string git = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--quick") {
      a->quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == nullptr || *end != '\0') return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
      have_trace = true;
    } else if (k == "--git") {
      a->git = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return have_seed && have_trace && a->seconds > 0 &&
         (a->workload == "verdict33" || a->workload == "exact33" ||
          a->workload == "ingest");
}

struct Query {
  std::string id, sql;
  std::unique_ptr<vdb::sql::Statement> flat;  // parsed, subqueries flattened
  ResultSet exact;                            // engine answer at 1 thread
  std::vector<double> exact_1t_ms;            // 1-thread exact latencies
  bool approximated = false;  // in the first accuracy draw
  std::vector<double> rel_errs;  // largest relative error, per accuracy draw
  std::vector<double> ms;                     // workload-loop latencies
};

// Middleware layer metrics: sums over the 33 queries of a traced VerdictDB
// pass (per-query means for the two counts), reported as medians over the
// traced passes.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPassLayers[] = {
    {"sql.parse_ms", "ms"},
    {"sql.print_ms", "ms"},
    {"sql.reparse_ms", "ms"},
    {"core.flatten_ms", "ms"},
    {"core.classify_ms", "ms"},
    {"core.self_ms", "ms"},
    {"core.statements_per_query", "count"},
    {"core.approximated_queries", "count"},
    {"engine.meta_ms", "ms"},
    {"engine.probe_ms", "ms"},
    {"engine.rewritten_ms", "ms"},
    {"engine.passthrough_ms", "ms"},
    {"engine.tq-16_probe_share", "ratio"},
};

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)), tracer_(args_.trace) {}
  int Main();

 private:
  void Check(bool ok, const std::string& what);
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Setup();
  void Reference();
  void VerdictPass();
  void Accuracy();
  void RecordAccuracy(Query* q, const vdb::core::ApproxAnswer& ans,
                      const ExecInfo& info);
  std::vector<double> QueryMedians() const;
  void ExactPass(int threads, bool loop);
  void IngestRound(size_t batch);
  void KnownFault(const std::string& what);
  void IngestEpoch();
  void FullScrambleCheck();
  /// kReferenceCalibrationMs over the run's median calibration time.
  double CalibrationScale() const;
  void Report(double query_ms, int passes);
  void ReportLayers();

  Args args_;
  Tracer tracer_;
  std::unique_ptr<Fixture> fx_;
  std::vector<Query> queries_;
  int next_query_ = 0;  // query id of the spans
  bool correct_ = true;
  int reported_failures_ = 0;
  uint64_t attempted_ = 0, failed_ = 0;
  struct MetricValue {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<MetricValue> metrics_;

  // Setup.
  std::vector<double> setup_s_, generate_s_, stage_s_, uniform_ms_,
      hashed_ms_;
  // Accuracy draws: errors and estimator diagnostics.
  std::vector<double> rel_errs_, halfwidths_;
  int cells_ = 0, covered_ = 0;
  // Traced VerdictDB passes, by kPassLayers name.
  std::map<std::string, std::vector<double>> pass_layers_;
  std::vector<double> verdict_rows_scanned_;  // per query, per traced pass
  // Exact passes: sums over the 33 queries, by engine thread count.
  std::map<int, std::vector<double>> exact_pass_ms_;
  double exact_rows_scanned_ = 0.0;
  // Ingest rounds.
  // lineitem's scrambles, refreshed after each reset, and the ratio their
  // rows carry: the build's tau for a uniform scramble, the realized
  // sample rows / base rows for a hashed one (paper §3.1).
  std::vector<vdb::sampling::SampleInfo> scrambles_;
  std::vector<double> row_ratio_;
  int known_faults_ = 0;
  std::vector<double> append_ms_, fresh_ms_, append_statements_;
  double appended_rows_ = 0.0, fresh_rows_scanned_ = 0.0, reset_ms_ = 0.0;
  // Full-scramble check.
  std::set<std::string> faulty_;
  // CPU times of the calibration kernel, taken through set-up and the loop.
  std::vector<double> calib_ms_;
};

void Bench::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  if (++reported_failures_ <= 20) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

// An operation that a fault named in README.md fails: counted in `failed`,
// so the run stays correct.
void Bench::KnownFault(const std::string& what) {
  ++failed_;
  if (++known_faults_ <= 4) {
    std::fprintf(stderr, "known fault: %s\n", what.c_str());
  }
}

void Bench::Setup() {
  const int reps = args_.quick ? 1 : kSetupReps;
  FixtureSpec spec;
  spec.seed = args_.seed;
  spec.scale = kScale;
  spec.batch_rows = kBatchRows;
  spec.batches = kBatches;
  for (int r = 0; r < reps; ++r) {
    fx_.reset();  // one fixture in memory at a time
    calib_ms_.push_back(CalibrationMs());
    fx_ = BuildFixture(spec);
    setup_s_.push_back(fx_->cost.total_s);
    generate_s_.push_back(fx_->cost.generate_s);
    stage_s_.push_back(fx_->cost.stage_s);
    uniform_ms_.push_back(fx_->cost.uniform_build_ms);
    hashed_ms_.push_back(fx_->cost.hashed_build_ms);
  }
}

// Exact answers on the base tables at 1 engine thread: the truth every
// other check compares with. The single-table queries are also recomputed
// in plain C++ over the generated columns.
void Bench::Reference() {
  auto add = [&](const std::vector<vdb::workload::WorkloadQuery>& qs) {
    for (const auto& wq : qs) {
      Query q;
      q.id = wq.id;
      q.sql = wq.sql;
      queries_.push_back(std::move(q));
    }
  };
  add(vdb::workload::TpchQueries());
  add(vdb::workload::InstaQueries());

  vdb::engine::Database* db = fx_->db.get();
  db->set_num_threads(1);
  for (Query& q : queries_) {
    auto parsed = vdb::sql::ParseStatement(q.sql);
    if (!parsed.ok() || parsed.value()->kind != vdb::sql::StatementKind::kSelect) {
      std::fprintf(stderr, "%s does not parse as a SELECT\n", q.id.c_str());
      std::exit(2);
    }
    q.flat = std::move(parsed).ValueOrDie();
    auto flat = vdb::core::FlattenComparisonSubqueries(q.flat->select.get());
    Check(flat.ok(), q.id + ": flattening failed");
    const double t0 = CpuMs();
    auto rs = db->ExecuteSelect(*q.flat->select);
    q.exact_1t_ms.push_back(CpuMs() - t0);
    if (!rs.ok()) {
      std::fprintf(stderr, "%s: exact query failed: %s\n", q.id.c_str(),
                   rs.status().ToString().c_str());
      std::exit(2);
    }
    q.exact = std::move(rs).ValueOrDie();
    std::string why;
    Check(CheckIndependently(q.id, *db, q.exact, &why),
          q.id + " exact answer disagrees with the plain recomputation: " +
              why);
  }
}

// One pass of the 33 queries through VerdictDB. In a traced run each query
// is then taken apart from outside: its reads replayed by role, and the
// front-end steps timed on its text and on the SQL it sent.
void Bench::VerdictPass() {
  vdb::driver::Connection& conn = fx_->ctx->connection();
  vdb::engine::Database* db = fx_->db.get();
  const bool traced = tracer_.on();
  std::map<std::string, double> L;
  for (const LayerMetric& m : kPassLayers) L[m.name] = 0.0;
  double rows_scanned = 0.0;
  for (Query& q : queries_) {
    const int qid = next_query_++;
    const int root = tracer_.Begin("query " + q.id, qid);
    conn.ClearLog();
    const uint64_t rows0 = db->rows_scanned();
    ExecInfo info;
    const double t0 = CpuMs();
    auto ans = fx_->ctx->ExecuteApprox(q.sql, &info);
    const double t1 = CpuMs();
    const uint64_t rows1 = db->rows_scanned();
    q.ms.push_back(t1 - t0);
    if (!ans.ok()) {
      Check(false, q.id + ": " + ans.status().ToString());
      tracer_.End(root);
      continue;
    }
    if (!info.approximated) {
      std::string why;
      Check(SameResult(ans.value().result, q.exact, &why),
            q.id + " pass-through answer differs from the exact one: " + why);
    } else {
      const ApproxCheck c = CheckApprox(ans.value(), q.exact);
      Check(c.ok, q.id + ": " + c.why);
    }
    if (!traced) continue;

    // Re-execute each read the query issued, timed and classified by role;
    // writes are never replayed.
    tracer_.Add("core.execute_approx", qid, t0, t1);
    const std::vector<std::string> log = conn.statement_log();
    double engine_ms = 0.0, probe_ms = 0.0;
    for (const std::string& s : log) {
      if (!StartsWith(s, "select")) continue;
      std::string role = "engine.passthrough";
      if (s.find(vdb::sampling::kMetadataTable) != std::string::npos) {
        role = "engine.meta";
      } else if (StartsWith(s, "select count(distinct ")) {
        role = "engine.probe";
      } else if (info.approximated && s == info.rewritten_sql) {
        role = "engine.rewritten";
      } else if (info.exact_rerun) {
        role = "engine.hac";  // HAC is off at the library defaults
      }
      const double r0 = CpuMs();
      auto rs = db->Execute(s);
      const double r1 = CpuMs();
      Check(rs.ok(), q.id + ": replayed statement failed: " + s);
      tracer_.Add(role, qid, r0, r1);
      if (L.count(role + "_ms")) L[role + "_ms"] += r1 - r0;
      engine_ms += r1 - r0;
      if (role == "engine.probe") probe_ms += r1 - r0;
    }
    const double n = static_cast<double>(queries_.size());
    L["core.self_ms"] += (t1 - t0) - engine_ms;
    L["core.statements_per_query"] += static_cast<double>(log.size()) / n;
    L["core.approximated_queries"] += info.approximated ? 1 : 0;
    rows_scanned += static_cast<double>(rows1 - rows0) / n;
    if (q.id == "tq-16") L["engine.tq-16_probe_share"] = probe_ms / (t1 - t0);

    // The front-end steps, timed on the query text and on the SQL sent.
    double a = CpuMs();
    auto parsed = vdb::sql::ParseStatement(q.sql);
    double b = CpuMs();
    tracer_.Add("sql.parse", qid, a, b);
    L["sql.parse_ms"] += b - a;
    vdb::sql::SelectStmt* sel = parsed.value()->select.get();
    a = CpuMs();
    (void)vdb::core::FlattenComparisonSubqueries(sel);
    b = CpuMs();
    tracer_.Add("core.flatten", qid, a, b);
    L["core.flatten_ms"] += b - a;
    a = CpuMs();
    const vdb::core::QueryClass qc = vdb::core::ClassifyQuery(*sel);
    b = CpuMs();
    tracer_.Add("core.classify", qid, a, b);
    L["core.classify_ms"] += b - a;
    Check(qc.supported || !info.approximated,
          q.id + " was approximated although ClassifyQuery rejects it");
    const vdb::sql::Statement* sent = parsed.value().get();
    std::unique_ptr<vdb::sql::Statement> reparsed;
    if (info.approximated) {
      a = CpuMs();
      auto rp = vdb::sql::ParseStatement(info.rewritten_sql);
      b = CpuMs();
      tracer_.Add("sql.reparse", qid, a, b);
      L["sql.reparse_ms"] += b - a;
      Check(rp.ok(), q.id + ": rewritten SQL does not parse again");
      if (rp.ok()) {
        reparsed = std::move(rp).ValueOrDie();
        sent = reparsed.get();
      }
    }
    a = CpuMs();
    const std::string printed = vdb::sql::PrintStatement(
        *sent, conn.dialect().print_options);
    b = CpuMs();
    tracer_.Add("sql.print", qid, a, b);
    L["sql.print_ms"] += b - a;
    Check(!info.approximated || printed == info.rewritten_sql,
          q.id + ": printing the re-parsed rewritten SQL changes it");
    tracer_.End(root);
  }
  if (!traced) return;
  for (const auto& [name, value] : L) pass_layers_[name].push_back(value);
  verdict_rows_scanned_.push_back(rows_scanned);
}

void Bench::RecordAccuracy(Query* q, const vdb::core::ApproxAnswer& ans,
                           const ExecInfo& info) {
  const ApproxCheck c = CheckApprox(ans, q->exact);
  Check(c.ok, q->id + ": " + c.why);
  q->rel_errs.push_back(c.max_rel_err);
  rel_errs_.push_back(std::max(c.max_rel_err, kErrFloor));
  halfwidths_.push_back(std::max(info.max_relative_error, kErrFloor));
  cells_ += c.cells;
  covered_ += c.covered;
}

// Every query through VerdictDB once, then the approximated ones again
// after each redraw of the uniform scrambles. Untimed; every answer is
// checked, and every approximated one's error recorded.
void Bench::Accuracy() {
  for (int draw = 0; draw < kAccuracyDraws; ++draw) {
    if (draw > 0) {
      const vdb::Status st = RedrawUniformScrambles(fx_.get());
      Check(st.ok(), "redrawing the uniform scrambles failed: " + st.ToString());
    }
    for (Query& q : queries_) {
      if (draw > 0 && !q.approximated) continue;
      ExecInfo info;
      auto ans = fx_->ctx->ExecuteApprox(q.sql, &info);
      if (!ans.ok()) {
        Check(false, q.id + ": " + ans.status().ToString());
        continue;
      }
      if (draw == 0) q.approximated = info.approximated;
      if (info.approximated) {
        RecordAccuracy(&q, ans.value(), info);
      } else {
        std::string why;
        Check(SameResult(ans.value().result, q.exact, &why),
              q.id + " pass-through answer differs from the exact one: " + why);
      }
    }
  }
}

std::vector<double> Bench::QueryMedians() const {
  std::vector<double> medians;
  if (args_.workload == "ingest") {
    medians.push_back(Median(fresh_ms_));
  } else {
    for (const Query& q : queries_) medians.push_back(Median(q.ms));
  }
  return medians;
}

void Bench::ExactPass(int threads, bool loop) {
  vdb::engine::Database* db = fx_->db.get();
  db->set_num_threads(threads);
  double total = 0.0;
  const uint64_t rows0 = db->rows_scanned();
  for (size_t i = 0; i < queries_.size(); ++i) {
    Query& q = queries_[i];
    const double w0 = NowMs(), t0 = CpuMs();
    auto rs = db->ExecuteSelect(*q.flat->select);
    const double t1 = CpuMs(), w1 = NowMs();
    // CPU time sums the engine's threads, so a parallel pass is timed on the
    // wall clock (engine.exec_ms and engine.parallel_speedup).
    total += threads == 1 ? t1 - t0 : w1 - w0;
    if (loop) q.ms.push_back(t1 - t0);
    if (threads == 1) q.exact_1t_ms.push_back(t1 - t0);
    tracer_.Add("engine.exec", next_query_++, t0, t1);
    std::string why;
    Check(rs.ok() && SameResult(rs.value(), q.exact, &why),
          q.id + " differs between 1 and " + std::to_string(threads) +
              " engine threads: " + (rs.ok() ? why : rs.status().ToString()));
  }
  exact_rows_scanned_ = static_cast<double>(db->rows_scanned() - rows0) /
                        static_cast<double>(queries_.size());
  exact_pass_ms_[threads].push_back(total);
  db->set_num_threads(1);
}

void Bench::IngestRound(size_t batch_index) {
  vdb::engine::Database* db = fx_->db.get();
  auto& catalog = db->catalog();
  vdb::driver::Connection& conn = fx_->ctx->connection();
  if (scrambles_.empty()) {
    auto samples = fx_->ctx->sample_catalog().SamplesFor("lineitem");
    if (!samples.ok()) {
      std::fprintf(stderr, "sample catalog: %s\n",
                   samples.status().ToString().c_str());
      std::exit(2);
    }
    scrambles_ = samples.value();
    row_ratio_.clear();
    const double base_rows =
        static_cast<double>(catalog.GetTable("lineitem")->num_rows());
    for (const auto& sc : scrambles_) {
      row_ratio_.push_back(
          sc.columns.empty()
              ? fx_->tau.at(sc.sample_table)
              : static_cast<double>(
                    catalog.GetTable(sc.sample_table)->num_rows()) /
                    base_rows);
    }
  }
  const std::string& batch_name = fx_->batch_tables[batch_index];
  auto batch = catalog.GetTable(batch_name);
  const size_t batch_rows = batch->num_rows();
  const size_t base0 = catalog.GetTable("lineitem")->num_rows();
  std::vector<size_t> rows0;
  for (const auto& s : scrambles_) {
    rows0.push_back(catalog.GetTable(s.sample_table)->num_rows());
  }

  const int qid = next_query_++;
  const int root = tracer_.Begin("round", qid);
  conn.ClearLog();
  const double t0 = CpuMs();
  auto st = fx_->ctx->sample_builder().AppendData("lineitem", batch_name);
  const double t1 = CpuMs();
  tracer_.Add("sampling.append", qid, t0, t1);
  append_ms_.push_back(t1 - t0);
  append_statements_.push_back(static_cast<double>(conn.statement_log().size()));
  appended_rows_ += static_cast<double>(batch_rows);
  Check(st.ok(), "AppendData failed: " + st.ToString());

  // The base grows by exactly the batch; a uniform scramble by a count its
  // binomial distribution gives a two-sided tail probability above 1e-10
  // (a 5-sigma normal band is too narrow in the skewed tail of a small
  // n*p: 45 of 2000 rows at 1%, 1e-6 likely, came up once). A hashed scramble
  // grows by exactly the batch rows whose key hashes below the build's tau:
  // the universe cut is fixed. AppendData cuts at the catalog's realized
  // ratio instead, a known fault.
  attempted_ += 2;  // the append and the fresh read
  Check(catalog.GetTable("lineitem")->num_rows() == base0 + batch_rows,
        "lineitem did not grow by the batch size");
  std::string cut_fault;
  for (size_t s = 0; s < scrambles_.size(); ++s) {
    const vdb::sampling::SampleInfo& sc = scrambles_[s];
    const uint64_t grew =
        catalog.GetTable(sc.sample_table)->num_rows() - rows0[s];
    const double tau = fx_->tau.at(sc.sample_table);
    if (sc.columns.empty()) {
      const auto [lo, hi] = BinomialRange(batch_rows, tau);
      Check(grew >= lo && grew <= hi,
            sc.sample_table + " grew by " + std::to_string(grew) +
                ", outside the binomial range [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]");
      continue;
    }
    const auto& col =
        batch->column(static_cast<size_t>(batch->ColumnIndex(sc.columns[0])));
    uint64_t below = 0;
    for (size_t r = 0; r < batch_rows; ++r) {
      if (vdb::HashUnit(vdb::Value::Int(col.GetInt(r))) < tau) ++below;
    }
    if (grew != below && cut_fault.empty()) {
      cut_fault = sc.sample_table + " grew by " + std::to_string(grew) +
                  ", but " + std::to_string(below) +
                  " batch keys hash below tau " + std::to_string(tau);
    }
  }
  if (!cut_fault.empty()) KnownFault("append: " + cut_fault);

  // One approximate read of the grown table: its count(*) estimate, which
  // the program rounds to a whole number, must be the scramble's rows
  // divided by the ratio its rows carry, to within that rounding.
  ExecInfo info;
  const uint64_t scanned0 = db->rows_scanned();
  const double t2 = CpuMs();
  auto ans = fx_->ctx->ExecuteApprox(kFreshSql, &info);
  const double t3 = CpuMs();
  fresh_rows_scanned_ = static_cast<double>(db->rows_scanned() - scanned0);
  tracer_.Add("engine.fresh_read", qid, t2, t3);
  tracer_.End(root);
  fresh_ms_.push_back(t3 - t2);
  if (!ans.ok() || !info.approximated) {
    Check(false, std::string("fresh read was not approximated: ") +
                     (ans.ok() ? info.skip_reason : ans.status().ToString()));
    return;
  }
  int used = -1;
  for (size_t s = 0; s < scrambles_.size(); ++s) {
    const std::string& name = scrambles_[s].sample_table;
    if (info.rewritten_sql.find(name) != std::string::npos &&
        (used < 0 ||
         name.size() > scrambles_[static_cast<size_t>(used)].sample_table.size())) {
      used = static_cast<int>(s);
    }
  }
  Check(used >= 0, "fresh read names no lineitem scramble");
  if (used < 0) return;
  const std::string& table = scrambles_[static_cast<size_t>(used)].sample_table;
  const double want =
      static_cast<double>(catalog.GetTable(table)->num_rows()) /
      row_ratio_[static_cast<size_t>(used)];
  const double got = ans.value().result.GetDouble(0, 0);
  Check(std::fabs(got - want) <= 0.5 + 1e-9 * want,
        "fresh count(*) estimate " + std::to_string(got) + " != rows/ratio " +
            std::to_string(want) + " of " + table);
}

void Bench::IngestEpoch() {
  for (size_t b = 0; b < fx_->batch_tables.size(); ++b) IngestRound(b);
  const double t0 = CpuMs();
  const vdb::Status st = ResetLineitem(fx_.get());
  reset_ms_ += CpuMs() - t0;
  Check(st.ok(), "resetting lineitem failed: " + st.ToString());
  scrambles_.clear();
}

// Every approximated query built from count/sum/avg must give the exact
// answer when its scrambles hold 100% of each table. Median and stddev are
// exempt: averaging subsample statistics is not exact for them.
void Bench::FullScrambleCheck() {
  FixtureSpec spec;
  spec.seed = kFullScrambleSeed;
  spec.scale = kFullScrambleScale;
  spec.scramble_ratio = 1.0;
  spec.io_budget = 1.0;
  auto full = BuildFixture(spec);
  full->db->set_num_threads(1);
  int checked = 0;
  for (const Query& q : queries_) {
    if (q.sql.find("median(") != std::string::npos ||
        q.sql.find("stddev(") != std::string::npos) {
      continue;
    }
    auto exact = full->db->ExecuteSelect(*q.flat->select);
    ExecInfo info;
    auto ans = full->ctx->ExecuteApprox(q.sql, &info);
    Check(exact.ok() && ans.ok(), q.id + ": full-scramble run failed");
    if (!exact.ok() || !ans.ok() || !info.approximated) continue;
    ++checked;
    std::string why;
    if (!PointsEqual(ans.value(), exact.value(), 1e-9, &why)) {
      faulty_.insert(q.id);
      std::fprintf(stderr, "full-scramble fault: %s: %s\n", q.id.c_str(),
                   why.c_str());
    }
  }
  std::fprintf(stderr, "full-scramble check: %d queries approximated, %zu "
               "not exact\n", checked, faulty_.size());
}

double Bench::CalibrationScale() const {
  const double calib = Median(calib_ms_);
  const double k = kReferenceCalibrationMs / calib;
  std::fprintf(stderr,
               "calibration: median %.4f ms over %zu runs of the kernel; "
               "end-to-end times are scaled by %.4f\n",
               calib, calib_ms_.size(), k);
  return k;
}

void Bench::Report(double query_ms, int passes) {
  const bool ingest = args_.workload == "ingest";
  const std::vector<double> medians = QueryMedians();
  double slowest = 0.0;
  for (double m : medians) slowest = std::max(slowest, m);
  const double reads =
      ingest ? static_cast<double>(fresh_ms_.size())
             : static_cast<double>(passes) * static_cast<double>(queries_.size());
  const double append_s = Sum(append_ms_) / 1000.0;
  // Every time is scaled to the reference speed of the calibration kernel.
  const double k = CalibrationScale();
  Metric("setup_s", k * Median(setup_s_), "s");
  Metric("query_geomean_ms", k * Geomean(medians), "ms");
  Metric("slowest_query_ms", k * slowest, "ms");
  Metric("throughput_qps", reads / (k * query_ms / 1000.0), "queries/s");
  Metric("rel_err_geomean_pct", 100.0 * Geomean(rel_errs_), "%");
  Metric("append_p50_ms", k * Median(append_ms_), "ms");
  Metric("append_p95_ms", k * Percentile(append_ms_, 0.95), "ms");
  Metric("ingest_rows_per_s", appended_rows_ / (k * append_s), "rows/s");
  Metric("fresh_read_p50_ms", k * Median(fresh_ms_), "ms");
  Metric("peak_rss_mb", PeakRssMb(), "MB");
}

void Bench::ReportLayers() {
  Metric("workload.generate_s", Median(generate_s_), "s");
  Metric("workload.stage_s", Median(stage_s_), "s");
  Metric("sampling.build_uniform_ms", Median(uniform_ms_), "ms");
  Metric("sampling.build_hashed_ms", Median(hashed_ms_), "ms");
  Metric("sampling.scramble_rows", static_cast<double>(fx_->scramble_rows),
         "count");
  Metric("sampling.scramble_bytes_per_base_byte",
         fx_->scramble_bytes_per_base_byte, "ratio");
  for (const LayerMetric& m : kPassLayers) {
    Metric(m.name, Median(pass_layers_[m.name]), m.unit);
  }
  const double exec_1t = Median(exact_pass_ms_[1]);
  const double exec = Median(exact_pass_ms_[Nproc()]);
  Metric("engine.exec_ms", exec, "ms");
  Metric("engine.exec_1t_ms", exec_1t, "ms");
  Metric("engine.parallel_speedup", exec_1t / exec, "ratio");
  // Per query of the workload's loop.
  double rows = exact_rows_scanned_;
  if (args_.workload == "verdict33") {
    rows = Median(verdict_rows_scanned_);
  } else if (args_.workload == "ingest") {
    rows = fresh_rows_scanned_;
  }
  Metric("engine.rows_scanned", rows, "count");
  Metric("sampling.append_ms", Median(append_ms_), "ms");
  Metric("sampling.append_statements", Median(append_statements_), "count");
  Metric("engine.fresh_read_ms", Median(fresh_ms_), "ms");
  Metric("estimator.halfwidth_geomean_pct", 100.0 * Geomean(halfwidths_), "%");
  Metric("estimator.covered_cells", covered_, "count");
  Metric("estimator.cells", cells_, "count");

  // Same definition as query_geomean_ms, scaled alike: the tracing overhead
  // is the difference from an untraced run of the same seed.
  Metric("trace.query_geomean_ms", CalibrationScale() * Geomean(QueryMedians()),
         "ms");
}

int Bench::Main() {
  std::printf(
      "{\"envelope\": {\"git\": \"%s\", \"nproc\": %d, \"simd\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"seed\": %llu, "
      "\"workload\": \"%s\", \"seconds\": %g, \"trace\": %d, \"quick\": %d}}\n",
      args_.git.c_str(), Nproc(),
      vdb::engine::kernels::SimdLevelName(
          vdb::engine::kernels::CurrentSimdLevel()),
      VDBBENCH_COMPILER, VDBBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(args_.seed), args_.workload.c_str(),
      args_.seconds, args_.trace ? 1 : 0, args_.quick ? 1 : 0);
  std::fflush(stdout);

  const int setup_span = tracer_.Begin("setup", -1);
  Setup();
  tracer_.End(setup_span);
  const int ref_span = tracer_.Begin("reference", -1);
  Reference();
  tracer_.End(ref_span);
  const int acc_span = tracer_.Begin("accuracy", -1);
  Accuracy();
  tracer_.End(acc_span);

  const std::string& w = args_.workload;
  const bool trace = args_.trace;
  int passes = 0;  // of the workload's own loop body (queries or epochs)
  double loop_ms = 0.0, ingest_ms = 0.0;
  // The closed loop: whole rounds of passes and ingest epochs until the
  // run's seconds are spent on the wall clock; one round in quick mode.
  // loop_ms and ingest_ms are CPU time, as every measured time is.
  auto loop = [&](int passes_per_round, int epochs_per_round, auto&& pass) {
    const double wall0 = NowMs(), start = CpuMs();
    do {
      for (int c = 0; c < kCalibrationsPerRound; ++c) {
        calib_ms_.push_back(CalibrationMs());
      }
      for (int p = 0; p < passes_per_round; ++p, ++passes) pass();
      const double t0 = CpuMs();
      for (int e = 0; e < epochs_per_round; ++e) IngestEpoch();
      ingest_ms += CpuMs() - t0;
    } while (!args_.quick && NowMs() - wall0 < args_.seconds * 1000.0);
    loop_ms = CpuMs() - start;
    // The share of the loop's wall time this process ran: below 1 when the
    // host or other processes took the vCPU.
    const double wall_ms = NowMs() - wall0;
    std::fprintf(stderr, "loop: %.0f ms wall, %.0f ms CPU (%.3f)\n", wall_ms,
                 loop_ms, loop_ms / wall_ms);
  };
  // A traced run of the other workloads traces three VerdictDB passes for
  // the middleware layers; their latencies are not the workload's.
  auto verdict_passes = [&] {
    if (!trace) return;
    for (int p = 0; p < 3; ++p) VerdictPass();
    for (Query& q : queries_) q.ms.clear();
  };
  // The first multi-threaded pass of a process pays for starting the pool's
  // workers and their allocator arenas; it is not timed.
  auto exact_warmup = [&] {
    ExactPass(Nproc(), false);
    exact_pass_ms_.clear();
  };
  auto exact_layers = [&] {
    if (!trace) return;
    exact_warmup();
    ExactPass(1, false);
    ExactPass(Nproc(), false);
  };

  if (w == "verdict33") {
    loop(1, kVerdictEpochsPerRound, [&] { VerdictPass(); });
    attempted_ += static_cast<uint64_t>(passes) * queries_.size();
    exact_layers();
  } else if (w == "exact33") {
    // At nproc threads the loop's figures moved by up to 2x between runs
    // on a shared 4-vCPU host, so the loop runs at 1 thread; the nproc pass
    // stays as a check (and a traced run's layer metric).
    verdict_passes();
    loop(1, kExactEpochsPerRound, [&] { ExactPass(1, true); });
    attempted_ += static_cast<uint64_t>(passes) * queries_.size();
    exact_layers();  // an untraced run's nproc check follows the report
  } else {
    verdict_passes();
    exact_layers();
    loop(0, 1, [] {});
  }

  if (args_.trace) {
    ReportLayers();
  } else {
    // Query time: the loop less its ingest epochs, or for ingest less the
    // untimed resets.
    Report(w == "ingest" ? loop_ms - reset_ms_ : loop_ms - ingest_ms, passes);
  }
  if (w == "exact33" && !trace) {
    // After the peak-memory reading: the nproc threads' scratch had raised
    // the peak by 15-110 MB, a different amount in every run.
    ExactPass(Nproc(), false);
  }
  if (w == "verdict33") {
    // After the peak-memory reading: the check holds a second database.
    FullScrambleCheck();
    failed_ += static_cast<uint64_t>(passes) * faulty_.size();
  }
  if (args_.trace && !args_.trace_out.empty() &&
      !tracer_.Write(args_.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args_.trace_out.c_str());
  }

  if (w != "ingest") {
    // Per query: mode in the first accuracy draw, median 1-thread exact
    // time, median loop time, their ratio, and the median error over draws.
    std::fprintf(stderr, "%-7s %-6s %11s %11s %8s %9s\n", "query", "mode",
                 "exact1t_ms", "loop_ms", "ratio", "rel.err");
    for (const Query& q : queries_) {
      const double e = Median(q.exact_1t_ms), m = Median(q.ms);
      std::fprintf(stderr, "%-7s %-6s %11.3f %11.3f %7.2fx %8.3f%%\n",
                   q.id.c_str(), q.approximated ? "approx" : "exact", e, m,
                   e / m, 100.0 * Median(q.rel_errs));
    }
  }
  for (const MetricValue& m : metrics_) {
    std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                metrics_[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace vdbbench

int main(int argc, char** argv) {
  vdbbench::Args args;
  if (!vdbbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vdbbench --workload verdict33|exact33|ingest "
                 "--seed <n> --seconds <s> --trace 0|1 [--quick] "
                 "[--git <sha>] [--trace-out <file>]\n");
    return 2;
  }
  return vdbbench::Bench(std::move(args)).Main();
}
