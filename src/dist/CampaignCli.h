//===--- CampaignCli.h - Shared campaign/serve CLI driver -------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tools' campaign modes, implemented once: telechat --campaign,
/// telechat --serve and litmus-sim --serve are the same flag grammar
/// (corpus specs, generator specs, test options, JSON outputs, journal
/// and server knobs) over the same engine, differing only in execution
/// mode. Sharing the driver -- like workerToolMain for --work -- keeps
/// the two CLIs from drifting: a server flag added here exists in both
/// tools at once. relayToolMain reads the downstream flags (--bind,
/// --batch, --lease-timeout, --status-port, --verbose) through the same
/// parser as --serve.
///
/// Generative campaigns (--gen-seed/--gen-count) stream units off the
/// diy generator instead of a materialised corpus; --journal makes a
/// served campaign durable and --resume replays a crashed one
/// (docs/DISTRIBUTED.md).
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_CAMPAIGNCLI_H
#define TELECHAT_DIST_CAMPAIGNCLI_H

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
/// numeric flag value was refused before anything ran).
/// \p Usage is called on argument errors.
int campaignToolMain(int argc, char **argv, void (*Usage)(),
                     CampaignCliMode Mode);

/// The whole relay CLI: `<tool> --relay <listen-port> <upstream-host:port>
/// [--bind A] [--batch N] [--lease-timeout S] [--status-port P]
/// [--verbose]`, the same downstream flags --serve parses. Exit 0 on a
/// completed campaign, 1 on error, 2 for a refused number.
int relayToolMain(int argc, char **argv, void (*Usage)());

} // namespace telechat

#endif // TELECHAT_DIST_CAMPAIGNCLI_H
