// Command-line front end for GMine, factored as a library so the command
// logic is unit-testable. The `gmine` binary (tools/gmine_cli.cpp) is a
// thin wrapper over RunCommand.
//
// Commands:
//   generate  --out PREFIX [--levels L --fanout K --leaf-size S --seed N]
//             writes PREFIX.edges (edge list) and PREFIX.labels
//   build     --graph FILE [--labels FILE] --out STORE [--levels L
//             --fanout K] builds the .gtree single-file store
//   info      STORE            prints hierarchy + store statistics
//   query     STORE --label NAME   label query + pop-up details
//   extract   STORE --source NAME [--source NAME ...] [--budget B]
//             [--svg FILE]    multi-source connection subgraph
//   render    STORE [--focus NAME] [--zoom Z] --svg FILE
//   export    STORE --community NAME (--dot FILE | --graphml FILE)
//   edit      STORE [--script FILE]
//             [--max-leaf-size N] [--compact-ops N] [--mem-budget-mb M]
//             batch edit driver: applies add-node/add-edge/remove-edge/
//             remove-node script batches with incremental subtree
//             repair (docs/EDITS.md)
//   serve     STORE [--sessions N] [--script FILE] [--threads T]
//             [--mem-budget-mb M]  concurrent session-pool driver: runs
//             '<session> <op> [arg]' script lines (or stdin) across N
//             sessions over one store, on the thread pool, through the
//             server's session-op dispatcher (net/session_ops.h)
//   server    STORE [--port P --max-clients N --threads T
//             --mem-budget-mb M --idle-timeout-ms MS --prefetch on
//             --port-file FILE]  TCP front end mapping remote clients
//             onto the session pool (docs/SERVER.md)
//   connect   HOST:PORT [--script FILE] [--save-body FILE]  loopback
//             protocol driver for a running server
//   stats     STORE [--mem-budget-mb M]  buffer-pool and store page
//             statistics after a warm-up walk over every leaf
//             (docs/STORAGE.md)

#ifndef GMINE_CLI_COMMANDS_H_
#define GMINE_CLI_COMMANDS_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace gmine::cli {

/// Parsed command line: flag map + positionals.
struct CommandLine {
  std::string command;
  std::vector<std::string> positional;
  /// Repeated flags accumulate (e.g. --source A --source B).
  std::vector<std::pair<std::string, std::string>> flags;

  /// Last value of `flag`, or `fallback`.
  std::string Get(const std::string& flag,
                  const std::string& fallback = "") const;
  /// All values of `flag` in order.
  std::vector<std::string> GetAll(const std::string& flag) const;
  bool Has(const std::string& flag) const;
};

/// Parses argv-style arguments (excluding the program name). Flags take
/// the form --name value; everything else is positional.
gmine::Result<CommandLine> ParseCommandLine(
    const std::vector<std::string>& args);

/// Executes a command; human-readable output is appended to `out`.
/// Returns a non-OK status on failure (bad usage = InvalidArgument,
/// including any flag the command does not read).
Status RunCommand(const CommandLine& cmd, std::string* out);

/// Convenience: parse + run.
Status RunCli(const std::vector<std::string>& args, std::string* out);

/// Usage text.
std::string UsageText();

}  // namespace gmine::cli

#endif  // GMINE_CLI_COMMANDS_H_
