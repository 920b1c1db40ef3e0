// Data generation and scramble preparation: fig4's data (TPC-H-derived and
// Instacart-style, scale 0.8 ≈ 480K lineitem rows, the generators' default
// seeds) and its 13 uniform and hashed scrambles. --seed seeds the database
// (every random draw of the program); the staged ingest batches come from a
// fixed seed, so the appends a known fault fails are the same on every seed.

#include <cstdio>
#include <cstdlib>
#include <set>

#include "bench.h"
#include "common/hash.h"
#include "workload/insta.h"
#include "workload/tpch.h"

namespace vdbbench {

namespace {

using vdb::engine::Database;

struct ScrambleSpec {
  const char* table;
  const char* column;  // nullptr: uniform
  double ratio;
};

// AqpFixture's sample set (the one bench_fig4 and bench_fig10 use).
constexpr ScrambleSpec kScrambles[] = {
    {"lineitem", nullptr, 0.01},         {"lineitem", "l_orderkey", 0.02},
    {"lineitem", "l_partkey", 0.02},     {"orders", nullptr, 0.05},
    {"orders", "o_orderkey", 0.02},      {"partsupp", nullptr, 0.10},
    {"partsupp", "ps_suppkey", 0.10},    {"partsupp", "ps_partkey", 0.10},
    {"order_products", nullptr, 0.02},   {"order_products", "order_id", 0.02},
    {"orders_insta", nullptr, 0.05},     {"orders_insta", "order_id", 0.02},
    {"orders_insta", "user_id", 0.02},
};

// The staged lineitem's generator seed.
constexpr uint64_t kStagingSeed = 19990401;

uint64_t Derive(uint64_t seed, uint64_t stream) {
  return vdb::HashMix64(seed * 0x9E3779B97F4A7C15ull + stream);
}

[[noreturn]] void SetupFailed(const std::string& what,
                              const vdb::Status& st) {
  std::fprintf(stderr, "setup failed: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

}  // namespace

std::unique_ptr<Fixture> BuildFixture(const FixtureSpec& spec) {
  auto fx = std::make_unique<Fixture>();
  const double t0 = CpuMs();
  fx->db = std::make_unique<Database>(Derive(spec.seed, 1));

  vdb::workload::TpchConfig tc;
  tc.scale = spec.scale;
  if (auto st = vdb::workload::GenerateTpch(fx->db.get(), tc); !st.ok()) {
    SetupFailed("tpch generation", st);
  }
  vdb::workload::InstaConfig ic;
  ic.scale = spec.scale;
  if (auto st = vdb::workload::GenerateInsta(fx->db.get(), ic); !st.ok()) {
    SetupFailed("insta generation", st);
  }
  const double t1 = CpuMs();
  fx->cost.generate_s = (t1 - t0) / 1000.0;

  // fig4's options; the substitution threshold scales with the data so a
  // smaller fixture substitutes the same tables (part and customer stay
  // dimension-sized and are never sampled).
  vdb::core::VerdictOptions opts;
  opts.min_rows_for_sampling =
      static_cast<int64_t>(30000.0 * spec.scale / 0.8);
  opts.io_budget = spec.io_budget;
  opts.min_tuples_per_group = 16;
  fx->ctx = std::make_unique<vdb::core::VerdictContext>(fx->db.get(),
                                                        vdb::driver::EngineKind::kGeneric, opts);

  auto& builder = fx->ctx->sample_builder();
  double base_bytes = 0.0, scramble_bytes = 0.0;
  std::set<std::string> sampled;
  for (const ScrambleSpec& s : kScrambles) {
    const double ratio = spec.scramble_ratio > 0 ? spec.scramble_ratio
                                                 : s.ratio;
    const double b0 = CpuMs();
    auto info = s.column == nullptr
                    ? builder.CreateUniformSample(s.table, ratio)
                    : builder.CreateHashedSample(s.table, s.column, ratio);
    const double b1 = CpuMs();
    if (!info.ok()) SetupFailed(std::string("scramble of ") + s.table,
                                info.status());
    (s.column == nullptr ? fx->cost.uniform_build_ms
                         : fx->cost.hashed_build_ms) += b1 - b0;
    fx->tau[info.value().sample_table] = ratio;
    fx->scramble_rows += info.value().sample_rows;
    scramble_bytes += static_cast<double>(
        fx->db->catalog().GetTable(info.value().sample_table)->ApproxBytes());
    if (sampled.insert(s.table).second) {
      base_bytes += static_cast<double>(
          fx->db->catalog().GetTable(s.table)->ApproxBytes());
    }
  }
  fx->scramble_bytes_per_base_byte = scramble_bytes / base_bytes;
  const double t2 = CpuMs();

  if (spec.batch_rows > 0) {
    // A second lineitem from another seed, cut into batch tables that
    // AppendData copies into the base table.
    Database stage(kStagingSeed);
    vdb::workload::TpchConfig sc;
    sc.scale = 0.2;
    sc.seed = kStagingSeed;
    if (auto st = vdb::workload::GenerateTpch(&stage, sc); !st.ok()) {
      SetupFailed("staging generation", st);
    }
    auto base = fx->db->catalog().GetTable("lineitem");
    fx->pristine_lineitem = base->CloneSchema();
    fx->pristine_lineitem->AppendRange(*base, 0, base->num_rows());
    auto li = stage.catalog().GetTable("lineitem");
    const size_t rows = static_cast<size_t>(spec.batch_rows);
    if (rows * static_cast<size_t>(spec.batches) > li->num_rows()) {
      SetupFailed("staging", vdb::Status::Internal("staged lineitem too small"));
    }
    for (int b = 0; b < spec.batches; ++b) {
      auto batch = li->CloneSchema();
      batch->AppendRange(*li, static_cast<size_t>(b) * rows, rows);
      std::string name = "ingest_batch_" + std::to_string(b);
      if (auto st = fx->db->RegisterTable(name, std::move(batch)); !st.ok()) {
        SetupFailed("staging " + name, st);
      }
      fx->batch_tables.push_back(std::move(name));
    }
  }
  const double t3 = CpuMs();
  fx->cost.stage_s = (t3 - t2) / 1000.0;
  fx->cost.total_s = (t3 - t0) / 1000.0;
  return fx;
}

vdb::Status RedrawUniformScrambles(Fixture* fx) {
  auto& samples = fx->ctx->sample_catalog();
  auto existing = samples.SamplesFor("");
  if (!existing.ok()) return existing.status();
  for (const auto& s : existing.value()) {
    if (s.type != vdb::sampling::SampleType::kUniform) continue;
    VDB_RETURN_IF_ERROR(samples.Unregister(s.sample_table));
    auto info =
        fx->ctx->sample_builder().CreateUniformSample(s.base_table, s.ratio);
    if (!info.ok()) return info.status();
  }
  return vdb::Status::Ok();
}

vdb::Status ResetLineitem(Fixture* fx) {
  auto& samples = fx->ctx->sample_catalog();
  auto existing = samples.SamplesFor("lineitem");
  if (!existing.ok()) return existing.status();
  for (const auto& s : existing.value()) {
    VDB_RETURN_IF_ERROR(samples.Unregister(s.sample_table));
  }
  auto& catalog = fx->db->catalog();
  VDB_RETURN_IF_ERROR(catalog.DropTable("lineitem", /*if_exists=*/false));
  auto copy = fx->pristine_lineitem->CloneSchema();
  copy->AppendRange(*fx->pristine_lineitem, 0,
                    fx->pristine_lineitem->num_rows());
  VDB_RETURN_IF_ERROR(catalog.CreateTable("lineitem", std::move(copy)));
  auto& builder = fx->ctx->sample_builder();
  for (const ScrambleSpec& s : kScrambles) {
    if (std::string(s.table) != "lineitem") continue;
    auto info = s.column == nullptr
                    ? builder.CreateUniformSample(s.table, s.ratio)
                    : builder.CreateHashedSample(s.table, s.column, s.ratio);
    if (!info.ok()) return info.status();
  }
  return vdb::Status::Ok();
}

}  // namespace vdbbench
