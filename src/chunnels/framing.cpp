#include "chunnels/framing.hpp"

#include "chunnels/encrypt.hpp"
#include "serialize/codec.hpp"

namespace bertha {

namespace {

// 4-byte stream header (stream id + flags placeholder) + varint length.
class FrameConnection final : public Connection {
 public:
  FrameConnection(ConnPtr inner, uint32_t stream_id)
      : inner_(std::move(inner)), stream_id_(stream_id) {}

  Result<void> send(Msg m) override {
    Bytes framed;
    framed.reserve(kHeaderBytes + kMaxVarintBytes + m.payload.size());
    Writer w(std::move(framed));
    w.put_u8(static_cast<uint8_t>(stream_id_));
    w.put_u8(static_cast<uint8_t>(stream_id_ >> 8));
    w.put_u8(static_cast<uint8_t>(stream_id_ >> 16));
    w.put_u8(0);  // flags
    w.put_bytes(m.payload);
    m.payload = std::move(w).take();
    return inner_->send(std::move(m));
  }

  // Drops (and waits for the next datagram) unless the header is whole
  // and the length varint equals the bytes after it; the body is then
  // shifted to the front of the same buffer.
  Result<Msg> recv(Deadline deadline) override {
    for (;;) {
      BERTHA_TRY_ASSIGN(m, inner_->recv(deadline));
      if (m.payload.size() < kHeaderBytes) continue;
      Reader r(BytesView(m.payload).subspan(kHeaderBytes));
      auto len = r.get_varint();
      if (!len.ok() || len.value() != r.remaining()) continue;
      m.payload.erase(m.payload.begin(), m.payload.end() - r.remaining());
      return m;
    }
  }

  const Addr& local_addr() const override { return inner_->local_addr(); }
  const Addr& peer_addr() const override { return inner_->peer_addr(); }
  void close() override { inner_->close(); }

 private:
  static constexpr size_t kHeaderBytes = 4;
  static constexpr size_t kMaxVarintBytes = 10;

  ConnPtr inner_;
  uint32_t stream_id_;
};

}  // namespace

FrameChunnel::FrameChunnel() {
  info_.type = "frame";
  info_.name = "frame/http2ish";
  info_.scope = Scope::application;
  info_.endpoints = EndpointConstraint::both;
  info_.priority = 0;
  info_.props["offloadable"] = "false";
  // The optimizer may move framing across encryption and reliability
  // (framing bytes are opaque to both).
  info_.props["commutes_with"] = "encrypt,tcpish,reliable";
  // Offload synthesis (src/synth/): the fixed header + length varint is
  // parseable (and strippable) by a compiled program.
  info_.props["synth.pattern"] = "frame";
}

Result<ConnPtr> FrameChunnel::wrap(ConnPtr inner, WrapContext& ctx) {
  uint32_t stream = static_cast<uint32_t>(ctx.args.get_u64_or("stream_id", 1));
  return ConnPtr(std::make_shared<FrameConnection>(std::move(inner), stream));
}

TcpishChunnel::TcpishChunnel() {
  info_.type = "tcpish";
  info_.name = "tcpish/sw";
  info_.scope = Scope::application;
  info_.endpoints = EndpointConstraint::both;
  info_.priority = 0;
  info_.props["offloadable"] = "false";
  info_.props["commutes_with"] = "frame";
}

Result<ConnPtr> TcpishChunnel::wrap(ConnPtr inner, WrapContext& ctx) {
  return reliable_.wrap(std::move(inner), ctx);
}

TlsChunnel::TlsChunnel(std::shared_ptr<SimNic> nic) : nic_(std::move(nic)) {
  info_.type = "tls";
  info_.name = nic_ ? "tls/nic" : "tls/sw";
  info_.scope = nic_ ? Scope::host : Scope::application;
  info_.endpoints = EndpointConstraint::both;
  info_.priority = nic_ ? 15 : 0;
  info_.props["offloadable"] = nic_ ? "true" : "false";
  info_.props["commutes_with"] = "frame";
  if (nic_) {
    info_.props["device"] = nic_->name();
    info_.resources = {ResourceReq{nic_->crypto_pool(), 1}};
  }
}

Result<ConnPtr> TlsChunnel::wrap(ConnPtr inner, WrapContext& ctx) {
  // TLS = encrypt over a reliable stream; the merged engine does both in
  // one device pass, so the payload crosses PCIe once per direction.
  BERTHA_TRY_ASSIGN(reliable, reliable_.wrap(std::move(inner), ctx));
  uint64_t key = ctx.args.get_u64_or("key", 0x5eed);
  if (!nic_) {
    SwEncryptChunnel sw;
    ChunnelArgs args = ctx.args;
    args.set_u64("key", key);
    WrapContext sub = ctx;
    sub.args = args;
    return sw.wrap(std::move(reliable), sub);
  }
  NicEncryptChunnel nic_encrypt(nic_);
  WrapContext sub = ctx;
  return nic_encrypt.wrap(std::move(reliable), sub);
}

}  // namespace bertha
