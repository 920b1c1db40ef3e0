// Shared declarations of the end-to-end VerdictDB benchmark (README.md
// describes the workloads, metrics and checks).

#ifndef VDBBENCH_BENCH_H_
#define VDBBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/verdict_context.h"
#include "engine/database.h"

namespace vdbbench {

// ---- statistics --------------------------------------------------------------

/// Milliseconds on the steady clock: run lengths only.
double NowMs();
/// CPU milliseconds of the whole process (every thread), the clock of every
/// measured time. The guest kernel leaves out the time its vCPU was stolen
/// by the host, which on a shared host doubled wall-clock times between runs.
double CpuMs();
/// CPU milliseconds of one fixed run of the benchmark's own calibration
/// kernel: random loads from a 16 MB table, a chase through a 256 KB ring and
/// a chain of dependent multiplies. It does not touch the program under test.
double CalibrationMs();
double Median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q);
double Geomean(const std::vector<double>& v);
double Sum(const std::vector<double>& v);
/// VmHWM of this process in MB (0 where /proc is unavailable).
double PeakRssMb();

// ---- fixture: generated data, scrambles, staged ingest batches ---------------

struct FixtureSpec {
  uint64_t seed = 1;            // derives the database seed
  double scale = 0.8;           // TPC-H and Instacart scale (0.8 = fig4's)
  double scramble_ratio = 0.0;  // > 0 replaces every scramble's ratio
  double io_budget = 0.12;
  int batch_rows = 0;           // > 0: stage a second lineitem in batches
  int batches = 0;
};

struct SetupCost {
  double generate_s = 0.0;        // both generators
  double uniform_build_ms = 0.0;  // CreateUniformSample, all tables
  double hashed_build_ms = 0.0;   // CreateHashedSample, all tables
  double stage_s = 0.0;           // second lineitem + batch tables
  double total_s = 0.0;
};

struct Fixture {
  std::unique_ptr<vdb::engine::Database> db;
  std::unique_ptr<vdb::core::VerdictContext> ctx;
  std::vector<std::string> batch_tables;
  vdb::engine::TablePtr pristine_lineitem;  // copy taken before any append
  std::map<std::string, double> tau;  // the build's ratio, by scramble table
  SetupCost cost;
  uint64_t scramble_rows = 0;
  double scramble_bytes_per_base_byte = 0.0;
};

/// Generates the data and prepares the scramble set; exits the process with
/// a message when the program under test cannot set up.
std::unique_ptr<Fixture> BuildFixture(const FixtureSpec& spec);

/// Draws every uniform scramble again (the hashed ones are a function of
/// the data).
vdb::Status RedrawUniformScrambles(Fixture* fx);

/// Puts lineitem back as it was before any append and rebuilds its
/// scrambles, through the same public calls set-up uses.
vdb::Status ResetLineitem(Fixture* fx);

// ---- checks against computations made apart from the program ----------------

/// Bit-identical: same names, row count, cell types and cell bits.
bool SameResult(const vdb::engine::ResultSet& a,
                const vdb::engine::ResultSet& b, std::string* why);

struct ApproxCheck {
  bool ok = true;
  std::string why;
  double max_rel_err = 0.0;  // largest |est - truth| / |truth| over cells
  int cells = 0;             // cells with a non-null half-width
  int covered = 0;           // of those, truth within est ± half-width
};

/// Approximated answer against the exact one: group keys must be a subset of
/// the exact answer's, every half-width finite and non-negative.
ApproxCheck CheckApprox(const vdb::core::ApproxAnswer& a,
                        const vdb::engine::ResultSet& exact);

/// Full-table scramble answer against the exact one: every exact group is
/// present and every point estimate equals its exact value within `rel_tol`.
bool PointsEqual(const vdb::core::ApproxAnswer& a,
                 const vdb::engine::ResultSet& exact, double rel_tol,
                 std::string* why);

/// Recomputes the single-table queries (tq-1, tq-6, iq-1, iq-3, iq-4, iq-5)
/// in plain C++ over the generated columns and compares. Returns true for
/// the other query ids.
bool CheckIndependently(const std::string& id, const vdb::engine::Database& db,
                        const vdb::engine::ResultSet& exact, std::string* why);

// ---- tracing: spans recorded in memory, written when the run ends -----------

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  /// Opens a span under the innermost open one; returns its id (-1 if off).
  int Begin(const std::string& name, int query);
  void End(int id);
  /// Records a closed span measured elsewhere (on CpuMs, as the spans are).
  void Add(const std::string& name, int query, double start_ms, double end_ms);
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_ms, end_ms;
    int parent, query;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace vdbbench

#endif  // VDBBENCH_BENCH_H_
