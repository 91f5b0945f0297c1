// 15-bit IEC 104 sequence-number arithmetic, shared by the APDU codec, the
// capture simulator, the sequence audit and the conformance state machine.
// N(S)/N(R) live in [0, 32767] and wrap; every comparison must go through
// the modular distance below or the 32767 -> 0 wrap is misread as a reset.
#pragma once

#include <cstdint>

namespace uncharted::iec104 {

/// Modulus of the N(S)/N(R) counters.
inline constexpr std::uint16_t kSeqModulo = 1u << 15;

/// Masks a raw value into the 15-bit sequence space.
constexpr std::uint16_t seq15(std::uint16_t v) {
  return static_cast<std::uint16_t>(v % kSeqModulo);
}

/// The successor of `v` in sequence space (32767 wraps to 0).
constexpr std::uint16_t seq15_next(std::uint16_t v) {
  return static_cast<std::uint16_t>((v + 1) % kSeqModulo);
}

/// Non-negative forward distance from `b` to `a` (how far `a` is ahead),
/// in [0, 32767].
constexpr int seq15_ahead(std::uint16_t a, std::uint16_t b) {
  return static_cast<int>((a + kSeqModulo - b) % kSeqModulo);
}

/// Signed shortest distance a - b, mapped to [-16384, 16383]. Zero means
/// equal; +1 means `a` is the next value after `b`; -1 the previous. This
/// is what makes 32767 -> 0 continuity (delta 0 against the expected next
/// value) instead of a 32767-step regression.
constexpr int seq15_delta(std::uint16_t a, std::uint16_t b) {
  int d = seq15_ahead(a, b);
  if (d >= static_cast<int>(kSeqModulo / 2)) d -= static_cast<int>(kSeqModulo);
  return d;
}

}  // namespace uncharted::iec104
