// perfbench — the repository's end-to-end benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--rate <open-loop req/s>] [--out <dir>]
//
// Runs one workload in this process and prints, as its last stdout line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced run. The full
// report (phase accounting, sample counts, host fingerprint, gate results)
// and the traced run's spans are written under --out.
#include <cstdio>
#include <exception>
#include <string>

#include "src/common/parallel.hpp"
#include "src/common/topology.hpp"
#include "util.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    // Two pool slots keep every runnable thread of a workload (server loop
    // or serving thread, pool worker, stage thread, load generator, reader
    // or trainer) within a 4-cpu host; see kServingCpu for the pinning.
    mtsr::set_affinity_policy(mtsr::AffinityPolicy::kCompact);
    mtsr::set_num_threads(2);
    mtsr::set_num_shards(1);

    Report report;
    const std::string host = host_fingerprint_json();
    std::printf("host: %s\n", host.c_str());
    report.detail("host", host);
    report.detail("args", "{\"workload\": " + json_string(args.workload) +
                              ", \"seed\": " + std::to_string(args.seed) +
                              ", \"seconds\": " + json_number(args.seconds) +
                              ", \"trace\": " + (args.trace ? "1" : "0") +
                              ", \"rate_req_per_s\": " + json_number(args.rate) + "}");
    std::string spans_csv = "phase,name,start_ns,end_ns,id,parent,request,thread\n";
    if (args.workload == "online-drift") {
      run_online_workload(args, report, spans_csv);
    } else {
      run_wire_workload(args, report, spans_csv);
    }

    make_dirs(args.out_dir);
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + (args.trace ? "-trace" : "");
    write_file(stem + ".json", report.full_json());
    if (args.trace) write_file(stem + "-spans.csv", spans_csv);
    std::printf("%s", report.phase_lines().c_str());
    for (const auto& why : report.gate_failures) {
      std::printf("correctness gate failed: %s\n", why.c_str());
    }
    std::printf("report: %s.json\n", stem.c_str());
    std::printf("%s\n", report.result_line().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
