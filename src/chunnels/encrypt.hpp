// Encryption chunnel (used by the paper's §6 pipeline example:
// encrypt |> http2 |> tcp).
//
// The cipher is a keyed xor keystream — a stand-in, NOT secure crypto;
// what matters for the reproduction is that it is a byte-transforming
// stage with a software implementation and a (simulated) NIC-offloaded
// implementation whose placement the DAG optimizer reasons about.
//
//   encrypt/sw   runs on the host CPU (the fallback),
//   encrypt/nic  "runs on the SmartNIC": same transform, but charges the
//                SimNic PCIe model for moving the payload to the device
//                and back, and consumes a NIC crypto engine per
//                connection (resource admission, §6).
#pragma once

#include <memory>

#include "core/chunnel.hpp"
#include "sim/simnic.hpp"

namespace bertha {

// Keystream transform shared by both implementations (xor is its own
// inverse). Key comes from the "key" DAG arg. Byte 8i + j is XORed with
// byte j (least-significant first) of mix64(key ^ i); this is the wire
// format, so every build must produce the same bytes.
void xor_keystream(Bytes& data, uint64_t key);

class SwEncryptChunnel final : public ChunnelImpl {
 public:
  SwEncryptChunnel();
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext& ctx) override;

 private:
  ImplInfo info_;
};

class NicEncryptChunnel final : public ChunnelImpl {
 public:
  // The factory needs the device it offloads to.
  explicit NicEncryptChunnel(std::shared_ptr<SimNic> nic);
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext& ctx) override;

 private:
  ImplInfo info_;
  std::shared_ptr<SimNic> nic_;
};

}  // namespace bertha
