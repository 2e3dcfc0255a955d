#include "chunnels/encrypt.hpp"

#include <bit>
#include <cstring>

#include "util/hash.hpp"

namespace bertha {

void xor_keystream(Bytes& data, uint64_t key) {
  // Block i of the keystream is mix64(key ^ i); it covers bytes
  // [8i, 8i + 8), least-significant byte first. Full blocks are XORed
  // a word at a time. The memcpy load/store is alignment-free, and the
  // locals keep the vector's own pointers out of the loop.
  uint8_t* p = data.data();
  const size_t full = data.size() / 8;
  const size_t tail = data.size() % 8;
  uint64_t block = 0;
  for (; block < full; block++, p += 8) {
    uint64_t ks = mix64(key ^ block);
    if constexpr (std::endian::native == std::endian::big)
      ks = __builtin_bswap64(ks);
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    word ^= ks;
    std::memcpy(p, &word, 8);
  }
  if (tail == 0) return;
  const uint64_t ks = mix64(key ^ block);
  for (size_t b = 0; b < tail; b++) p[b] ^= static_cast<uint8_t>(ks >> (8 * b));
}

namespace {

class EncryptConnection final : public Connection {
 public:
  EncryptConnection(ConnPtr inner, uint64_t key, std::shared_ptr<SimNic> nic)
      : inner_(std::move(inner)), key_(key), nic_(std::move(nic)) {}

  Result<void> send(Msg m) override {
    touch_device(m.payload.size());
    xor_keystream(m.payload, key_);
    touch_device(m.payload.size());
    return inner_->send(std::move(m));
  }

  Result<Msg> recv(Deadline deadline) override {
    BERTHA_TRY_ASSIGN(m, inner_->recv(deadline));
    touch_device(m.payload.size());
    xor_keystream(m.payload, key_);
    touch_device(m.payload.size());
    return m;
  }

  const Addr& local_addr() const override { return inner_->local_addr(); }
  const Addr& peer_addr() const override { return inner_->peer_addr(); }
  void close() override { inner_->close(); }

 private:
  // The NIC variant pays PCIe for each direction of the payload's trip
  // to the device. (In a NIC-adjacent pipeline the optimizer removes
  // this round trip; the bench quantifies exactly that.)
  void touch_device(size_t bytes) {
    if (nic_) sleep_for(nic_->record_pcie_transfer(bytes));
  }

  ConnPtr inner_;
  uint64_t key_;
  std::shared_ptr<SimNic> nic_;
};

}  // namespace

SwEncryptChunnel::SwEncryptChunnel() {
  info_.type = "encrypt";
  info_.name = "encrypt/sw";
  info_.scope = Scope::application;
  info_.endpoints = EndpointConstraint::both;
  info_.priority = 0;
  info_.props["offloadable"] = "false";
  info_.props["commutes_with"] = "frame";
}

Result<ConnPtr> SwEncryptChunnel::wrap(ConnPtr inner, WrapContext& ctx) {
  uint64_t key = ctx.args.get_u64_or("key", 0x5eed);
  return ConnPtr(
      std::make_shared<EncryptConnection>(std::move(inner), key, nullptr));
}

NicEncryptChunnel::NicEncryptChunnel(std::shared_ptr<SimNic> nic)
    : nic_(std::move(nic)) {
  info_.type = "encrypt";
  info_.name = "encrypt/nic";
  info_.scope = Scope::host;
  info_.endpoints = EndpointConstraint::both;
  info_.priority = 10;
  info_.props["offloadable"] = "true";
  info_.props["commutes_with"] = "frame";
  if (nic_) {
    info_.props["device"] = nic_->name();
    info_.resources = {ResourceReq{nic_->crypto_pool(), 1}};
  }
}

Result<ConnPtr> NicEncryptChunnel::wrap(ConnPtr inner, WrapContext& ctx) {
  uint64_t key = ctx.args.get_u64_or("key", 0x5eed);
  return ConnPtr(
      std::make_shared<EncryptConnection>(std::move(inner), key, nic_));
}

}  // namespace bertha
