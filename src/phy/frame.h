// PHY frame (PPDU) description. A frame carries an opaque MAC payload plus
// a segment list; segments are ranges of the payload with independent CRCs
// that the receiver decodes (or salvages) separately. This realizes the
// paper's §2.1 PHY abstraction:
//   * shim mode     — the MAC sends header/trailer as separate one-segment
//                     frames around a burst of data frames;
//   * integrated    — a single frame has kHeader/kBody/kTrailer segments
//                     decoded independently (the PPR-style hardware path).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "phy/types.h"
#include "phy/wifi_rate.h"
#include "sim/time.h"

namespace cmap::phy {

/// Base class for MAC payloads carried through the PHY. The MAC layer
/// derives its frame types from this and downcasts on receive.
struct Payload {
  virtual ~Payload() = default;
};

/// Globally unique per-transmission frame id derived from the sender
/// alone: ((tx + 1) << 40) | per-sender sequence. A frame's id thus
/// depends only on its sender's own history, never on how other nodes'
/// transmissions interleave with it (a medium-global counter would), which
/// matters because per-delivery fading substreams and same-tick delivery
/// order are both keyed on the frame id. NodeId < 2^20 (the
/// medium's id cap) and < 2^40 frames per sender fit without collision;
/// the +1 keeps 0 free as the "no frame" sentinel receivers rely on.
constexpr std::uint64_t make_frame_id(NodeId tx_node, std::uint64_t seq) {
  return ((static_cast<std::uint64_t>(tx_node) + 1) << 40) | seq;
}

enum class SegmentKind : std::uint8_t { kWhole, kHeader, kBody, kTrailer };

struct Segment {
  SegmentKind kind = SegmentKind::kWhole;
  std::size_t bytes = 0;
};

struct Frame {
  std::uint64_t id = 0;    // unique per transmission
  NodeId tx_node = 0;      // transmitting node (diagnostics only)
  WifiRate rate = WifiRate::k6Mbps;
  std::vector<Segment> segments;
  std::shared_ptr<const Payload> payload;
  sim::Time duration = 0;  // total airtime incl. preamble; set on transmit

  std::size_t size_bytes() const {
    std::size_t total = 0;
    for (const auto& s : segments) total += s.bytes;
    return total;
  }
};

/// Outcome of a frame reception (locked or salvaged).
struct RxResult {
  double rssi_dbm = -200.0;
  double min_sinr_db = -200.0;  // worst per-chunk SINR over the frame
  std::vector<bool> segment_ok;  // parallel to Frame::segments

  bool all_ok() const {
    for (bool ok : segment_ok)
      if (!ok) return false;
    return !segment_ok.empty();
  }
};

}  // namespace cmap::phy
