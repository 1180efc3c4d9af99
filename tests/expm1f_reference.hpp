#pragma once
// Scalar expm1f for x <= 0 (and NaN): fdlibm's s_expm1f.c, branches and all,
// as glibc ships it. It is the bit-level contract of the vector expm1 behind
// kernels::bias_act's ELU, and stands in for std::expm1 in the GAT reference
// so no test depends on the host libm. Every step is one rounded float
// operation: build including files with -ffp-contract=off.

#include <bit>
#include <cstdint>

namespace moment::gnn::reference {

inline float expm1f_nonpos(float x) {
  const float ln2_hi = std::bit_cast<float>(0x3f317180u);
  const float ln2_lo = std::bit_cast<float>(0x3717f7d1u);
  const float invln2 = std::bit_cast<float>(0x3fb8aa3bu);
  const float q1 = std::bit_cast<float>(0xbd088889u);
  const float q2 = std::bit_cast<float>(0x3ad00d01u);
  const float q3 = std::bit_cast<float>(0xb8a670cdu);
  const float q4 = std::bit_cast<float>(0x36867e54u);
  const float q5 = std::bit_cast<float>(0xb457edbbu);

  const std::uint32_t hx = std::bit_cast<std::uint32_t>(x) & 0x7fffffffu;
  if (hx > 0x7f800000u) return x + x;  // NaN
  if (hx >= 0x4195b844u) return -1.0f;  // x <= -27 ln2, -inf included

  float hi, lo, c = 0.0f;
  std::int32_t k;
  if (hx > 0x3eb17218u) {  // |x| > 0.5 ln2
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2
      hi = x + ln2_hi;
      lo = -ln2_lo;
      k = -1;
    } else {
      k = static_cast<std::int32_t>(invln2 * x + -0.5f);
      const float t = static_cast<float>(k);
      hi = x - t * ln2_hi;  // t * ln2_hi is exact here
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25
    return x;
  } else {
    k = 0;
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  // k <= -2: exp(x) - 1 = 2^k (1 - (e - x)) - 1; add k to y's exponent.
  const float y = 1.0f - (e - x);
  const std::uint32_t bits =
      std::bit_cast<std::uint32_t>(y) + (static_cast<std::uint32_t>(k) << 23);
  return std::bit_cast<float>(bits) - 1.0f;
}

}  // namespace moment::gnn::reference
