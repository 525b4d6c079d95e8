// CMAP wire formats (paper Fig. 3): virtual-packet headers and trailers
// carrying source, destination, sequence number and transmission time, the
// cumulative windowed ACK (§3.3), and the interferer-list broadcast (§3.1).
#pragma once

#include <cstdint>
#include <vector>

#include "mac/packet.h"
#include "phy/frame.h"
#include "phy/types.h"
#include "phy/wifi_rate.h"
#include "sim/time.h"

namespace cmap::core {

/// Sentinel for "any rate" in rate-annotated conflict state (§3.5).
inline constexpr phy::WifiRate kAnyRate = static_cast<phy::WifiRate>(0xff);

/// Fields shared by a virtual packet's header and trailer (Fig. 3: 24 bytes
/// on the wire — src 6, dst 6, transmission time 4, seq 4, CRC 4).
struct VpFields {
  phy::NodeId src = 0;
  phy::NodeId dst = 0;
  std::uint32_t vp_seq = 0;
  std::uint16_t npackets = 0;
  // "Transmission time" (Fig. 3), split in two so overhearers can place the
  // whole virtual packet in time from either the header or the trailer:
  // time remaining after this frame ends, and time elapsed from VP start
  // to this frame's end.
  sim::Time remaining_after = 0;
  sim::Time elapsed_through = 0;
  phy::WifiRate data_rate = phy::WifiRate::k6Mbps;
};

inline constexpr std::size_t kVpHeaderBytes = 24;

/// Standalone header/trailer packet (shim mode).
struct VpDelimFrame : phy::Payload {
  VpFields d;
  bool is_trailer = false;
  std::size_t wire_bytes() const { return kVpHeaderBytes; }
};

/// One data packet inside a virtual packet.
struct CmapDataFrame : phy::Payload {
  phy::NodeId src = 0;
  phy::NodeId dst = 0;
  std::uint32_t seq = 0;     // link-layer sequence number (per sender)
  std::uint32_t vp_seq = 0;  // virtual packet this copy travels in
  std::uint16_t index = 0;   // position within the virtual packet
  bool retry = false;
  mac::Packet packet;
  std::size_t wire_bytes() const { return packet.bytes + 28; }
};

/// Integrated-PHY data frame: header and trailer ride inside the frame as
/// separately-decodable segments (kHeader / kBody / kTrailer).
struct IntegratedDataFrame : phy::Payload {
  VpFields d;  // npackets == 1
  CmapDataFrame data;
  std::size_t body_bytes() const { return data.wire_bytes(); }
};

/// Cumulative windowed ACK (§3.3): per-VP bitmaps over the last Nwindow
/// virtual packets plus the receiver-observed loss rate over that window.
struct CmapAckFrame : phy::Payload {
  phy::NodeId src = 0;  // receiver sending the ACK
  phy::NodeId dst = 0;  // data sender
  struct VpAck {
    std::uint32_t vp_seq = 0;
    std::uint16_t npackets = 0;
    std::uint64_t bitmap = 0;  // bit i => packet index i received
  };
  std::vector<VpAck> vps;  // most recent last
  double loss_rate = 0.0;  // over the previous window of packets
  std::size_t wire_bytes() const { return 24 + 10 * vps.size(); }
};

/// One interferer-list entry: transmissions from `interferer` (to anyone)
/// conflict with `source`'s transmissions to the broadcasting receiver.
struct InterfererEntry {
  phy::NodeId source = 0;
  phy::NodeId interferer = 0;
  // §3.5 annotations: the rates at which the conflict was observed.
  phy::WifiRate source_rate = kAnyRate;
  phy::WifiRate interferer_rate = kAnyRate;
};

/// Periodic one-hop broadcast of a receiver's interferer list (§3.1).
struct InterfererListFrame : phy::Payload {
  phy::NodeId src = 0;
  std::vector<InterfererEntry> entries;
  std::size_t wire_bytes() const { return 16 + 10 * entries.size(); }
};

}  // namespace cmap::core
