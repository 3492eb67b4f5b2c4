// e2e_bench — the end-to-end benchmark program (run it through run.py).
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--git-sha <sha>] [--source-digest <hex>]
//   e2e_bench --list-metrics
//
// Prints a run record line, then as its last line the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 measures the
// end-to-end metrics with tracing off; --trace 1 is the separate traced
// run that gives the per-layer metrics. See README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "report.h"
#include "simd/dispatch.h"
#include "workload.h"

namespace {

using e2e::Report;
using e2e::RunContext;
using e2e::RunRecord;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload <image_qbe|"
               "int8_batch|exact_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "--scratch <dir> [--git-sha <sha>] [--source-digest <hex>]\n"
               "       e2e_bench --list-metrics\n",
               why);
  std::exit(2);
}

void ListMetrics() {
  for (const e2e::MetricSpec& spec : e2e::MetricTable()) {
    std::printf("%s %s %s %s\n", spec.per_layer ? "per_layer" : "end_to_end",
                spec.name, spec.unit, spec.better);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Usage(("bad argument " + key).c_str());
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "scratch"}) {
    if (args.count(required) == 0) Usage((std::string("missing --") + required).c_str());
  }

  RunContext ctx;
  ctx.workload = args["workload"];
  ctx.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  ctx.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  ctx.trace = args["trace"] == "1";
  ctx.scratch_dir = args["scratch"];
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  if (!(ctx.seconds > 0.0)) Usage("--seconds must be positive");
  if (args["trace"] != "0" && args["trace"] != "1") Usage("--trace must be 0 or 1");

  const std::map<std::string, void (*)(const RunContext&, Report*, RunRecord*)>
      workloads = {{"image_qbe", e2e::RunImageQbe},
                   {"int8_batch", e2e::RunInt8Batch},
                   {"exact_mixed", e2e::RunExactMixed}};
  const auto it = workloads.find(ctx.workload);
  if (it == workloads.end()) Usage(("unknown workload " + ctx.workload).c_str());

  RunRecord record;
  record.AddText("workload", ctx.workload);
  record.Add("seed", static_cast<double>(ctx.seed));
  record.Add("seconds", ctx.seconds);
  record.Add("trace", ctx.trace ? 1 : 0);
  record.AddText("git_sha", args.count("git-sha") ? args["git-sha"] : "unknown");
  record.AddText("source_digest",
                 args.count("source-digest") ? args["source-digest"] : "unknown");
  record.AddText("compiler", std::string("g++ ") + __VERSION__);
  record.AddText("simd_tier", cbix::simd::TierName(cbix::simd::ActiveTier()));
  record.Add("nproc", static_cast<double>(ctx.nproc));

  Report report(ctx.trace);
  it->second(ctx, &report, &record);
  record.Add("attempted", static_cast<double>(report.attempted()));
  record.Add("failed", static_cast<double>(report.failed()));

  const std::string result = report.Finish();
  std::printf("{\"run_record\": %s}\n%s\n", record.Json().c_str(), result.c_str());
  return 0;
}
