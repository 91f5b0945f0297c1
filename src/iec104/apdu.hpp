// APDU / APCI: the IEC 104 transport frame (start 0x68, length, 4 control
// octets, optional ASDU), covering I-, S- and U-format messages.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "iec104/asdu.hpp"
#include "util/bytes.hpp"
#include "util/expected.hpp"

namespace uncharted::iec104 {

enum class ApduFormat { kI, kS, kU };

std::string format_name(ApduFormat f);

/// Paper Table 4 token as a small integer, for dense per-token tables. An
/// I-format token is its typeID (0..255); the other tokens sit above that
/// range. Every id is below kTokenSpace.
constexpr std::uint16_t kTokenS = 0x100;
constexpr std::uint16_t kTokenINoAsdu = 0x101;  ///< I-format without an ASDU
constexpr std::uint16_t kTokenU = 0x200;        ///< | the U function bits
constexpr std::size_t kTokenSpace = 0x300;

/// The APDU format a token id stands for.
constexpr ApduFormat token_format(std::uint16_t token) {
  if (token == kTokenS) return ApduFormat::kS;
  return token >= kTokenU ? ApduFormat::kU : ApduFormat::kI;
}

/// Table 4 name of a token id: "S", "U1".."U32", or "I_36".
std::string token_name(std::uint16_t token);

/// A decoded APDU. For I-format, `asdu` is present (unless the ASDU failed
/// to decode, which the stream parser reports separately).
struct Apdu {
  ApduFormat format = ApduFormat::kU;
  std::uint16_t send_seq = 0;     ///< N(S), I-format only (0..32767)
  std::uint16_t recv_seq = 0;     ///< N(R), I- and S-format
  UFunction u_function = UFunction::kTestFrAct;  ///< U-format only
  std::optional<Asdu> asdu;       ///< I-format payload

  /// Builds an I-format APDU.
  static Apdu make_i(std::uint16_t ns, std::uint16_t nr, Asdu asdu);
  /// Builds an S-format acknowledgement.
  static Apdu make_s(std::uint16_t nr);
  /// Builds a U-format control message.
  static Apdu make_u(UFunction f);

  /// Serializes including the 0x68 start byte and length octet.
  /// Fails if the ASDU exceeds the 253-octet APDU limit.
  Result<std::vector<std::uint8_t>> encode(
      const CodecProfile& profile = CodecProfile::standard()) const;

  /// Paper Table 4 token: "S", "U1".."U32", or "I_36".
  std::string token() const { return token_name(token_id()); }
  /// The same token as a small integer (see kTokenSpace).
  std::uint16_t token_id() const;

  std::string str() const;
};

/// Decodes exactly one APDU from `r` (which may contain more bytes after
/// it; only the framed length is consumed). The ASDU of an I-format APDU is
/// decoded with `profile`; `arena` (optional) arena-allocates its object
/// storage — see Asdu::decode.
Result<Apdu> decode_apdu(ByteReader& r,
                         const CodecProfile& profile = CodecProfile::standard(),
                         std::pmr::memory_resource* arena = nullptr);

}  // namespace uncharted::iec104
