// The benchmark's workloads.  Each runs closed-loop for Options::seconds and
// returns its end-to-end metrics (Options::trace off) or its per-layer
// metrics (trace on); see README.md for what each one stresses.
//
// A run's RunRecord carries, besides workload-specific fields: values
// "wall_s", "setup_s", "rss_mib" (the run process's peak RSS), "traced",
// and on traced runs "cpu_s" (process CPU time over the steps); counts
// "rounds", "messages", "bits" and "digest"; series "step_s" (one span per
// round) and, for Protocol P, "step_round" (the round each span executed).
#pragma once

#include <vector>

#include "core/params.hpp"
#include "core/runner.hpp"
#include "measure.hpp"
#include "net/state_digest.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

/// `spread`: one push-pull rumor spread at n=2^20, serial, reliable network.
RunReport run_spread(const Options& options);

/// `spread_sharded_lossy`: the same spread under
/// synchronous:shards=4,threads=4 and an active message-layer adversary.
RunReport run_spread_sharded_lossy(const Options& options);

/// `protocol`: one Protocol P run at n=2^14, gamma=4, c_u = u, serial.
RunReport run_protocol(const Options& options);

/// `cluster`: Protocol P at n=4096 as 4 loopback NodeDriver nodes.
RunReport run_cluster(const Options& options);

/// Runs Protocol P once on `cfg`, untraced, and encodes its end state
/// through the wire probe (values "encode_ns_per_bit", "decode_ns_per_bit"
/// and "max_local_memory_bits").  For running in a child process.
RunRecord run_protocol_with_probe(const rfc::core::RunConfig& cfg);

/// Folds every counter of `m` into an end-state digest.
inline void mix_metrics(rfc::net::Fnv1a& fnv, const rfc::sim::Metrics& m) {
  for (std::uint64_t v :
       {m.rounds, m.pushes, m.pull_requests, m.pull_replies, m.total_bits,
        m.max_message_bits, m.active_links, m.denials, m.net_drops,
        m.net_dups, m.net_corruptions, m.net_delays, m.churn_crashes}) {
    fnv.mix_u64(v);
  }
}

/// Adds the end-to-end metrics: medians over the untraced runs.
void add_end_to_end(RunReport& report, const std::vector<RunRecord>& untraced,
                    double n);

/// Adds trace.overhead and the sim.step / message / CPU metrics from the
/// traced runs.
void add_step_metrics(RunReport& report, const std::vector<RunRecord>& traced,
                      const std::vector<RunRecord>& untraced);

/// Adds the Protocol P phase spans: each traced run's "step_s" bucketed by
/// ProtocolParams::phase_of_round of its "step_round", and "outcome_s", the
/// time from the last round to the result.  Medians over runs.
void add_protocol_phases(RunReport& report,
                         const rfc::core::ProtocolParams& params,
                         const std::vector<RunRecord>& traced);

/// Adds the accounting counts of a Protocol P workload: its traced runs
/// carry "bits", "rounds" and "max_message_bits"; `max_local_memory_bits`
/// and the wire probe's figures come from the caller.
void add_protocol_counts(RunReport& report,
                         const std::vector<RunRecord>& traced, double n,
                         double max_local_memory_bits,
                         const RunRecord& wire_probe);

}  // namespace perfbench
