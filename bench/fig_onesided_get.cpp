// One-sided GET evaluation: RPC GETs (the paper's active-message design)
// versus client-bypass RDMA-read GETs against the self-verifying remote
// index (DESIGN.md §9), across value sizes on both cluster profiles.
//
// Expected shape: once the index is bootstrapped and a key's location
// hint is cached, a one-sided GET costs ONE RDMA Read (two on the cold
// path) and zero server CPU, so latency drops below the RPC GET and
// stays flat until the record read starts paying the wire's byte cost.
// Oversized values (> slot) transparently fall back and match the RPC
// line.
//
// `--json <file>` records the cells + headline for tools/run_benches.py;
// `--seed <n>` reruns under a different deterministic workload stream.
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "fig_common.hpp"

using namespace rmc;
using namespace rmc::bench;

namespace {

struct Cell {
  double rpc_us = 0;
  double one_us = 0;
  double rpc_tps = 0;
  double one_tps = 0;
};

Cell run_cell(core::ClusterKind cluster, std::uint32_t value_size, std::uint64_t seed) {
  Cell cell;
  for (bool onesided : {false, true}) {
    core::TestBedConfig config;
    config.cluster = cluster;
    config.transport = core::TransportKind::ucr_verbs;
    if (onesided) config.client.mode = mc::ClientBehavior::Mode::onesided_get;
    core::TestBed bed(config);
    core::WorkloadConfig workload;
    workload.pattern = core::OpPattern::pure_get;
    workload.value_size = value_size;
    workload.ops_per_client = 400;
    workload.seed = seed;
    const auto result = core::run_workload(bed, workload);
    (onesided ? cell.one_us : cell.rpc_us) = result.mean_latency_us();
    (onesided ? cell.one_tps : cell.rpc_tps) = result.tps();
  }
  return cell;
}

std::vector<Cell> sweep(core::ClusterKind cluster, const std::vector<std::uint32_t>& sizes,
                        std::uint64_t seed, const char* title, bool csv) {
  std::vector<Cell> cells;
  for (std::uint32_t size : sizes) cells.push_back(run_cell(cluster, size, seed));
  if (csv) {
    std::printf("# %s\nsize,rpc_us,onesided_us,rpc_ktps,onesided_ktps\n", title);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::printf("%u,%.3f,%.3f,%.1f,%.1f\n", sizes[i], cells[i].rpc_us, cells[i].one_us,
                  cells[i].rpc_tps / 1000.0, cells[i].one_tps / 1000.0);
    }
    std::printf("\n");
  } else {
    Table table(title, {"size", "rpc us", "1-sided us", "speedup", "rpc ktps", "1-sided ktps"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      table.add_row({format_size_label(sizes[i]), Table::num(cells[i].rpc_us),
                     Table::num(cells[i].one_us),
                     Table::num(cells[i].rpc_us / cells[i].one_us, 2) + "x",
                     Table::num(cells[i].rpc_tps / 1000.0, 1),
                     Table::num(cells[i].one_tps / 1000.0, 1)});
    }
    table.print();
    std::printf("\n");
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = csv_mode(argc, argv);
  const std::string profile_file = profile_path(argc, argv);
  const std::uint64_t seed = seed_arg(argc, argv);
  const std::vector<std::uint32_t> sizes{4, 64, 256, 1024, 4096};

  std::printf("=== One-sided GET: RPC vs client-bypass RDMA Read ===\n\n");
  const auto ddr =
      sweep(core::ClusterKind::cluster_a, sizes, seed, "Cluster A (DDR) pure Get", csv);
  const auto qdr =
      sweep(core::ClusterKind::cluster_b, sizes, seed, "Cluster B (QDR) pure Get", csv);

  // Headline: the acceptance criterion — small-value one-sided GETs beat
  // the RPC GET on the QDR profile. Index 1 is the 64 B row.
  const Cell& head = qdr[1];
  std::printf("headline: QDR 64B get RPC=%.3fus one-sided=%.3fus (%.2fx)\n", head.rpc_us,
              head.one_us, head.rpc_us / head.one_us);

  const std::string json_path = arg_value(argc, argv, "--json");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    auto dump = [&](const char* name, const std::vector<Cell>& cells) {
      std::fprintf(f, "  \"%s\": {", name);
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::fprintf(f,
                     "%s\n    \"%u\": {\"rpc_us\": %.3f, \"onesided_us\": %.3f, "
                     "\"rpc_tps\": %.1f, \"onesided_tps\": %.1f}",
                     i ? "," : "", sizes[i], cells[i].rpc_us, cells[i].one_us,
                     cells[i].rpc_tps, cells[i].one_tps);
      }
      std::fprintf(f, "\n  }");
    };
    std::fprintf(f, "{\n");
    dump("ddr", ddr);
    std::fprintf(f, ",\n");
    dump("qdr", qdr);
    std::fprintf(f,
                 ",\n  \"headline\": {\"onesided_get_us_qdr_64\": %.3f, "
                 "\"rpc_get_us_qdr_64\": %.3f}\n}\n",
                 head.one_us, head.rpc_us);
    std::fclose(f);
    std::fprintf(stderr, "json written to %s\n", json_path.c_str());
  }

  // --trace <file>: one representative traced cell (one-sided 64 B GETs
  // on QDR) with a reduced op count to keep the artifact small.
  const std::string trace_file = arg_value(argc, argv, "--trace");
  if (!trace_file.empty()) {
    obs::tracer().enable();
    const Cell traced = run_cell(core::ClusterKind::cluster_b, 64, seed);
    std::printf("traced cell: QDR 64B one-sided=%.3fus\n", traced.one_us);
    write_trace(trace_file);
  }
  dump_metrics_if_requested(argc, argv);
  dump_latency_if_requested(argc, argv);
  write_profile(profile_file);
  return 0;
}
