// Deployment-wide Blockplane options.
#ifndef BLOCKPLANE_CORE_OPTIONS_H_
#define BLOCKPLANE_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace blockplane::core {

struct BlockplaneOptions {
  /// Tolerated independent byzantine failures per unit (f_i). Each
  /// participant runs 3*fi + 1 Blockplane nodes.
  int fi = 1;
  /// Tolerated benign geo-correlated (datacenter) failures (f_g). When
  /// positive, each participant mirrors its Local Log on its 2*fg closest
  /// participants and commits require proofs from fg of them.
  int fg = 0;

  /// Checkpoint interval I for unit and mirror logs. A node keeps the
  /// entries above its replica's stable checkpoint minus 4·I (DESIGN.md
  /// §10).
  uint64_t checkpoint_interval = 128;

  /// Pipeline window knobs (DESIGN.md §9). Each knob is the ceiling of a
  /// per-destination window controller that starts at the knob, halves on
  /// head-of-line loss spikes and completed view changes, and regrows back
  /// up to it (DESIGN.md §13); a lossless run keeps the knob throughout.
  ///
  /// Transmissions a communication daemon keeps in flight per destination.
  /// 1 disables pipelining (each record waits for the previous record's
  /// f_i+1 acks — one extra RTT per message under load).
  size_t daemon_window = 32;
  /// Concurrently outstanding PBFT proposals per unit/mirror leader. 1
  /// reproduces the paper's stop-and-wait group commit (§VI-C).
  uint64_t pbft_window = 1;
  /// Concurrently in-flight geo ops per participant (local commits, geo
  /// rounds, and mirror acks proceed concurrently keyed by geo position;
  /// completion callbacks still fire in submission order). 1 reproduces
  /// the paper's stop-and-wait behaviour.
  uint64_t participant_window = 1;
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_OPTIONS_H_
