// perfbench_tool — the compiled half of the benchmark (see
// perfbench/README.md). Subcommands:
//
//   perfbench_tool drive  --workload=W --serve=PATH --snapshot=FILE ...
//   perfbench_tool replay --workload=W --snapshot=FILE ...
//   perfbench_tool paper  --registry=PREFIX --recipes=FILE ...
//
// Each prints one JSON object on stdout; perfbench/run.py turns them into
// the benchmark's result line.

#include <cstdio>
#include <map>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool drive|replay|paper --key=value...\n");
    return 2;
  }
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "perfbench_tool: bad argument %s\n", arg.c_str());
      return 2;
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  const std::string command = argv[1];
  if (command == "drive") return perfbench::RunDrive(flags);
  if (command == "replay") return perfbench::RunReplay(flags);
  if (command == "paper") return perfbench::RunPaper(flags);
  std::fprintf(stderr, "perfbench_tool: unknown subcommand %s\n", command.c_str());
  return 2;
}
