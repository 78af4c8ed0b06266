//===--- CampaignCli.h - Shared service-mode CLI drivers --------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tools' service modes, implemented once: telechat --campaign,
/// telechat --serve and litmus-sim --serve are the same flag table
/// (corpus specs, generator specs, test options, JSON outputs, journal
/// and lease-server knobs) over the same engine, differing only in
/// execution mode; --relay and --work are shared the same way. Sharing
/// the drivers keeps the two CLIs from drifting: a server flag added
/// here exists in both tools at once, and so does its help line
/// (printToolUsage). The flag groups that the single-test modes reuse
/// (pipeline, simulation) are declared here too.
///
/// Generative campaigns (--gen-seed/--gen-count) stream units off the
/// diy generator instead of a materialised corpus; --journal makes a
/// served campaign durable and --resume replays a crashed one
/// (docs/DISTRIBUTED.md).
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_CAMPAIGNCLI_H
#define TELECHAT_DIST_CAMPAIGNCLI_H

#include "core/Telechat.h"
#include "support/Flags.h"

#include <string>

namespace telechat {

/// How campaignToolMain executes the campaign.
enum class CampaignCliMode {
  Local,    ///< In-process over a thread pool (telechat --campaign).
  Serve,    ///< Work server, full pipeline units (telechat --serve).
  SimServe, ///< Work server, simulation-only units (litmus-sim --serve).
};

/// The whole campaign/serve CLI: parses argv ([2] is the port for the
/// serve modes), builds the corpus, runs it, writes JSON artefacts and
/// prints the summary. Returns the process exit code (2 = a pipeline
/// campaign surfaced a compiler bug, matching single-test mode, or a
/// flag value was refused before anything ran). \p Usage is called on
/// argument errors.
int campaignToolMain(int argc, char **argv, void (*Usage)(),
                     CampaignCliMode Mode);

/// The whole relay CLI: `<tool> --relay <listen-port> <upstream-host:port>`
/// plus the lease-server flags --serve takes. Exit 0 on a completed
/// campaign, 1 on error, 2 for a refused value.
int relayToolMain(int argc, char **argv, void (*Usage)());

/// The whole worker CLI: `<tool> --work <host:port> [-j N] [--batch N]
/// [--max-units N] [--verbose]`. Prints the session summary; returns
/// the process exit code.
int workerToolMain(int argc, char **argv, void (*Usage)());

/// The pipeline group: --profile (into \p Profiles, which starts as the
/// default profile), --model, --no-augment, --no-optimise, --const-model
/// and --explore-budget (which only ever reroutes the compiled side).
/// With \p ProfileList, --profile takes a comma list and may repeat,
/// appending in order (a campaign's config table); without, it takes one
/// name and a repeat replaces it. Unknown and repeated profile names are
/// refused values.
void addPipelineFlags(FlagTable &T, std::vector<Profile> &Profiles,
                      TestOptions &Options, bool ProfileList);

/// The simulation group every simulating mode takes: --backend,
/// --max-steps, --no-prune, --no-transform, --no-cat-cache.
void addSimFlags(FlagTable &T, SimOptions &Sim);

/// Prints \p Synopsis, then the help of \p Single's groups and of the
/// campaign, serve, relay and work modes, each group once.
void printToolUsage(const char *Synopsis, const FlagTable &Single);

} // namespace telechat

#endif // TELECHAT_DIST_CAMPAIGNCLI_H
