#include "net/transport.hpp"

#include <cassert>
#include <cstdlib>
#include <utility>

#include "common/log.hpp"

namespace dodo::net {

namespace {
constexpr Port kFirstEphemeralPort = 32768;
}  // namespace

NetParams NetParams::udp() {
  NetParams p;
  p.name = "udp";
  p.max_datagram = 60 * 1024;
  p.frag_size = 1500;
  p.frame_overhead = 58;
  // Linux 2.0 on a 200 MHz Pentium Pro: sendto/recvfrom kernel crossing and
  // UDP/IP processing per datagram, IP fragmentation per 1500 B, and a
  // kernel<->user copy on each side (~80 MB/s memcpy on that hardware).
  p.per_dgram_send_cpu = micros(70);
  p.per_frag_send_cpu = micros(13);
  p.per_dgram_recv_cpu = micros(70);
  p.per_frag_recv_cpu = micros(13);
  p.per_byte_send_cpu_ns = 12.0;
  p.per_byte_recv_cpu_ns = 12.0;
  p.bandwidth_Bps = 12.5e6;
  p.propagation = micros(15);
  return p;
}

NetParams NetParams::unet() {
  NetParams p;
  p.name = "unet";
  p.max_datagram = 1472;
  p.frag_size = 1472;
  p.frame_overhead = 58;
  // U-Net: user-level access to the NIC, no kernel crossing; ~30 us
  // application-to-application small-message one-way latency as reported by
  // von Eicken et al for Fast Ethernet U-Net.
  p.per_dgram_send_cpu = micros(8);
  p.per_frag_send_cpu = 0;
  p.per_dgram_recv_cpu = micros(8);
  p.per_frag_recv_cpu = 0;
  p.per_byte_send_cpu_ns = 4.0;
  p.per_byte_recv_cpu_ns = 4.0;
  p.bandwidth_Bps = 12.5e6;
  p.propagation = micros(10);
  return p;
}

NetParams NetParams::unet_batched() {
  NetParams p = unet();
  p.name = "unet";
  // ~23 KB per simulated datagram: small enough that several chunks sit in
  // a bulk window and pipeline on the wire (CPU of chunk i+1 overlaps the
  // wire time of chunk i, as with real back-to-back packets), large enough
  // to cut event counts by ~16x.
  p.max_datagram = 16 * 1472;
  // Per-packet costs move to the per-fragment slots; fragments are 1472 B,
  // so each simulated datagram charges exactly what its constituent real
  // packets would have.
  p.per_frag_send_cpu = p.per_dgram_send_cpu;
  p.per_frag_recv_cpu = p.per_dgram_recv_cpu;
  p.per_dgram_send_cpu = 0;
  p.per_dgram_recv_cpu = 0;
  return p;
}

Network::Network(sim::Simulator& sim, NetParams params, std::size_t num_nodes)
    : sim_(sim),
      params_(std::move(params)),
      loss_rng_(sim.rng().fork(0x6e657477u)),  // "netw"
      tx_free_(num_nodes, 0),
      rx_free_(num_nodes, 0),
      node_up_(num_nodes, true),
      next_ephemeral_(num_nodes, kFirstEphemeralPort) {}

std::unique_ptr<Socket> Network::open(NodeId node, Port port) {
  assert(node < node_up_.size());
  const Endpoint ep{node, port};
  assert(bound_.find(ep) == bound_.end() && "port already bound");
  auto sock = std::unique_ptr<Socket>(new Socket(*this, ep));
  bound_[ep] = sock.get();
  return sock;
}

std::unique_ptr<Socket> Network::open_ephemeral(NodeId node) {
  assert(node < node_up_.size());
  // One hash probe per candidate port: the probe that finds it free binds it.
  std::pair<decltype(bound_)::iterator, bool> slot;
  do {
    slot = bound_.try_emplace(Endpoint{node, next_ephemeral_[node]++});
  } while (!slot.second);
  auto sock = std::unique_ptr<Socket>(new Socket(*this, slot.first->first));
  slot.first->second = sock.get();
  return sock;
}

void Network::set_node_up(NodeId node, bool up) {
  assert(node < node_up_.size());
  node_up_[node] = up;
}

bool Network::node_up(NodeId node) const {
  return node < node_up_.size() && node_up_[node];
}

namespace {
std::pair<NodeId, NodeId> normalize_link(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}
}  // namespace

void Network::set_link_cut(NodeId a, NodeId b, bool cut) {
  if (cut) {
    cut_links_.insert(normalize_link(a, b));
  } else {
    cut_links_.erase(normalize_link(a, b));
  }
}

bool Network::link_cut(NodeId a, NodeId b) const {
  return cut_links_.count(normalize_link(a, b)) != 0;
}

Duration Network::send_cpu_time(Bytes64 payload) const {
  const Bytes64 frags = params_.fragments_of(payload);
  return params_.per_dgram_send_cpu + frags * params_.per_frag_send_cpu +
         static_cast<Duration>(params_.per_byte_send_cpu_ns *
                               static_cast<double>(payload));
}

Duration Network::recv_cpu_time(Bytes64 payload) const {
  const Bytes64 frags = params_.fragments_of(payload);
  return params_.per_dgram_recv_cpu + frags * params_.per_frag_recv_cpu +
         static_cast<Duration>(params_.per_byte_recv_cpu_ns *
                               static_cast<double>(payload));
}

Duration Network::wire_time(Bytes64 payload) const {
  const Bytes64 frags = params_.fragments_of(payload);
  const Bytes64 on_wire = payload + frags * params_.frame_overhead;
  return transfer_time(on_wire, params_.bandwidth_Bps);
}

void Network::send(Message msg) {
  const Bytes64 payload = msg.wire_bytes();
  assert(payload <= params_.max_datagram && "datagram exceeds transport MTU");

  ++metrics_.datagrams_sent;
  metrics_.payload_bytes_sent += static_cast<std::uint64_t>(payload);

  if (!node_up(msg.src.node) || !node_up(msg.dst.node)) {
    ++metrics_.datagrams_dropped;
    return;
  }
  if (!cut_links_.empty() && link_cut(msg.src.node, msg.dst.node)) {
    ++metrics_.datagrams_cut;
    return;
  }
  if (params_.loss_rate > 0.0 && loss_rng_.chance(params_.loss_rate)) {
    ++metrics_.datagrams_lost;
    return;
  }
  if (drop_filter_ && drop_filter_(msg)) {
    ++metrics_.datagrams_lost;
    return;
  }

  const SimTime now = sim_.now();
  const SimTime ready = now + send_cpu_time(payload);
  const SimTime depart = ready > tx_free_[msg.src.node]
                             ? ready
                             : tx_free_[msg.src.node];
  const SimTime arrive = depart + wire_time(payload) + params_.propagation;
  tx_free_[msg.src.node] = depart + wire_time(payload);

  if (dup_filter_ && dup_filter_(msg)) {
    // Deliver an identical copy back-to-back after the original, occupying
    // its own slot on the receive link like any real duplicate frame. The
    // original is scheduled first at the same arrival instant, so FIFO event
    // order keeps original-then-duplicate on the receive link.
    ++metrics_.datagrams_duplicated;
    Message dup = msg;
    schedule_arrival(arrive, std::move(msg));
    schedule_arrival(arrive, std::move(dup));
    return;
  }
  schedule_arrival(arrive, std::move(msg));
}

// The receive link is claimed at ARRIVAL time, not send time: with several
// senders blasting one node concurrently (striped fan-out reads), frames
// interleave on the receiver in arrival order. Reserving rx_free_ at send()
// time would let the first caller's whole blast pre-empt frames of a
// concurrent sender that physically land earlier, serializing transfers that
// should overlap. So each datagram is scheduled at its wire-arrival instant,
// and only then claims the receiver's CPU slot.
void Network::schedule_arrival(SimTime at, Message msg) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(std::move(msg));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    in_flight_[slot] = std::move(msg);
  }
  sim_.schedule(at, [this, slot] { on_arrival(slot); });
}

void Network::on_arrival(std::uint32_t slot) {
  const Message& m = in_flight_[slot];
  const SimTime rx_start =
      sim_.now() > rx_free_[m.dst.node] ? sim_.now() : rx_free_[m.dst.node];
  const SimTime deliver_at = rx_start + recv_cpu_time(m.wire_bytes());
  rx_free_[m.dst.node] = deliver_at;
  sim_.schedule(deliver_at, [this, slot] { on_delivery(slot); });
}

// The destination is re-resolved at delivery time: the socket may have
// closed while the datagram was in flight, exactly like a NIC handing a
// frame to a port nobody listens on.
void Network::on_delivery(std::uint32_t slot) {
  Message m = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  if (!node_up(m.dst.node)) {
    ++metrics_.datagrams_dropped;
    return;
  }
  auto it = bound_.find(m.dst);
  if (it == bound_.end()) {
    ++metrics_.datagrams_dropped;
    DODO_DEBUG("net", "drop to closed port %s", to_string(m.dst).c_str());
    return;
  }
  ++metrics_.datagrams_delivered;
  if (delivery_probe_) delivery_probe_(m);
  it->second->deliver(std::move(m));
}

void Network::unbind(const Endpoint& ep) { bound_.erase(ep); }

Socket::~Socket() {
  if (net_ != nullptr) net_->unbind(local_);
}

void Socket::send(const Endpoint& dst, Buf header, Buf body,
                  Bytes64 body_size) {
  Message msg;
  msg.src = local_;
  msg.dst = dst;
  msg.header = std::move(header);
  msg.body = std::move(body);
  msg.body_size =
      body_size >= 0 ? body_size : static_cast<Bytes64>(msg.body.size());
  assert(msg.body_size >= static_cast<Bytes64>(msg.body.size()));
  net_->send(std::move(msg));
}

}  // namespace dodo::net
