#include "crypto/ed25519.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "crypto/sha512.hpp"

namespace dauct::crypto::ed25519 {

namespace {

using i64 = std::int64_t;
using u8 = std::uint8_t;
using u64 = std::uint64_t;
__extension__ typedef unsigned __int128 u128;

// --- Field arithmetic over GF(2^255 - 19), radix 2^51 -----------------------
// Five 51-bit limbs in u64s; products accumulate in unsigned __int128. Every
// operation except fe_add returns limbs below 2^52. fe_add leaves its sum
// unreduced (< 2^54 for reduced inputs); fe_mul and fe_sq accept limbs up to
// 2^54 and fe_sub up to 2^55, which every call site below stays within.

using Fe = std::array<u64, 5>;

constexpr u64 kMask51 = (u64{1} << 51) - 1;
constexpr Fe kZero{};
constexpr Fe kOne{1};
// Curve constant d = -121665/121666, 2d, sqrt(-1) and the base point (X, Y),
// limbs generated from the closed forms with exact integer math.
constexpr Fe kD = {0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029,
                   0x739c663a03cbb, 0x52036cee2b6ff};
constexpr Fe kD2 = {0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052,
                    0x6738cc7407977, 0x2406d9dc56dff};
constexpr Fe kSqrtM1 = {0x61b274a0ea0b0, 0x0d5a5fc8f189d, 0x7ef5e9cbd0c60,
                        0x78595a6804c9e, 0x2b8324804fc1d};
constexpr Fe kBaseX = {0x62d608f25d51a, 0x412a4b4f6592a, 0x75b7171a4b31d,
                       0x1ff60527118fe, 0x216936d3cd6e5};
constexpr Fe kBaseY = {0x6666666666658, 0x4cccccccccccc, 0x1999999999999,
                       0x3333333333333, 0x6666666666666};

// Group order L = 2^252 + 27742317777372353535851937790883648493, LE bytes.
constexpr u8 kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                       0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                       0,    0,    0,    0,    0,    0,    0,    0,
                       0,    0,    0,    0,    0,    0,    0,    0x10};

Fe fe_add(const Fe& a, const Fe& b) {
  return {a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]};
}

/// Propagate carries so every limb is below 2^52 (2^51 except limb 0).
Fe fe_carry(Fe a) {
  for (int i = 0; i < 4; ++i) {
    a[i + 1] += a[i] >> 51;
    a[i] &= kMask51;
  }
  a[0] += 19 * (a[4] >> 51);
  a[4] &= kMask51;
  return a;
}

/// a - b, computed as (a + 16p) - b so no limb underflows.
Fe fe_sub(const Fe& a, const Fe& b) {
  constexpr u64 k16P0 = 16 * ((u64{1} << 51) - 19);
  constexpr u64 k16P = 16 * kMask51;
  return fe_carry({a[0] + k16P0 - b[0], a[1] + k16P - b[1], a[2] + k16P - b[2],
                   a[3] + k16P - b[3], a[4] + k16P - b[4]});
}

Fe fe_neg(const Fe& a) { return fe_sub(kZero, a); }

/// Carry five 128-bit column sums down to 51-bit limbs (2^255 = 19 mod p).
Fe fe_reduce_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe r;
  t1 += t0 >> 51;
  r[0] = static_cast<u64>(t0) & kMask51;
  t2 += t1 >> 51;
  r[1] = static_cast<u64>(t1) & kMask51;
  t3 += t2 >> 51;
  r[2] = static_cast<u64>(t2) & kMask51;
  t4 += t3 >> 51;
  r[3] = static_cast<u64>(t3) & kMask51;
  r[4] = static_cast<u64>(t4) & kMask51;
  const u128 c = r[0] + (t4 >> 51) * 19;
  r[0] = static_cast<u64>(c) & kMask51;
  r[1] += static_cast<u64>(c >> 51);
  return r;
}

inline u128 m(u64 a, u64 b) { return static_cast<u128>(a) * b; }

Fe fe_mul(const Fe& a, const Fe& b) {
  const u64 b1 = 19 * b[1], b2 = 19 * b[2], b3 = 19 * b[3], b4 = 19 * b[4];
  return fe_reduce_wide(
      m(a[0], b[0]) + m(a[4], b1) + m(a[3], b2) + m(a[2], b3) + m(a[1], b4),
      m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2) + m(a[3], b3) + m(a[2], b4),
      m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3) + m(a[3], b4),
      m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4),
      m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]));
}

/// Dedicated squaring: 15 limb products instead of 25.
Fe fe_sq(const Fe& a) {
  const u64 a0_2 = 2 * a[0], a1_2 = 2 * a[1];
  const u64 a1_38 = 38 * a[1], a2_38 = 38 * a[2], a3_38 = 38 * a[3];
  const u64 a3_19 = 19 * a[3], a4_19 = 19 * a[4];
  return fe_reduce_wide(m(a[0], a[0]) + m(a1_38, a[4]) + m(a2_38, a[3]),
                        m(a0_2, a[1]) + m(a2_38, a[4]) + m(a3_19, a[3]),
                        m(a0_2, a[2]) + m(a[1], a[1]) + m(a3_38, a[4]),
                        m(a0_2, a[3]) + m(a1_2, a[2]) + m(a4_19, a[4]),
                        m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]));
}

Fe fe_sqn(Fe a, int n) {
  while (n-- > 0) a = fe_sq(a);
  return a;
}

/// Canonical little-endian encoding (fully reduced mod p).
void fe_tobytes(u8* out, const Fe& a) {
  Fe t = fe_carry(a);
  // q = 1 iff t >= p, i.e. iff t + 19 carries out of bit 255.
  u64 q = (t[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (t[i] + q) >> 51;
  t[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    t[i + 1] += t[i] >> 51;
    t[i] &= kMask51;
  }
  t[4] &= kMask51;
  const u64 w[4] = {t[0] | t[1] << 51, t[1] >> 13 | t[2] << 38,
                    t[2] >> 26 | t[3] << 25, t[3] >> 39 | t[4] << 12};
  for (int i = 0; i < 32; ++i) out[i] = static_cast<u8>(w[i / 8] >> (8 * (i % 8)));
}

/// Load 255 bits (the top bit of byte 31 is ignored).
Fe fe_frombytes(const u8* in) {
  u64 w[4] = {};
  for (int i = 0; i < 32; ++i) w[i / 8] |= u64{in[i]} << (8 * (i % 8));
  return {w[0] & kMask51, (w[0] >> 51 | w[1] << 13) & kMask51,
          (w[1] >> 38 | w[2] << 26) & kMask51, (w[2] >> 25 | w[3] << 39) & kMask51,
          (w[3] >> 12) & kMask51};
}

bool fe_equal(const Fe& a, const Fe& b) {
  u8 x[32], y[32];
  fe_tobytes(x, a);
  fe_tobytes(y, b);
  return std::memcmp(x, y, 32) == 0;
}

bool fe_is_zero(const Fe& a) { return fe_equal(a, kZero); }

u8 fe_parity(const Fe& a) {
  u8 s[32];
  fe_tobytes(s, a);
  return s[0] & 1;
}

/// Constant-time f = b ? g : f, for b in {0, 1}.
void fe_cmov(Fe& f, const Fe& g, u64 b) {
  const u64 mask = 0 - b;
  for (int i = 0; i < 5; ++i) f[i] ^= mask & (f[i] ^ g[i]);
}

/// Shared prefix of the two exponentiation chains: returns z^(2^250 - 1)
/// and sets z11 = z^11.
Fe fe_pow2250m1(const Fe& z, Fe& z11) {
  const Fe z2 = fe_sq(z);
  const Fe z9 = fe_mul(fe_sqn(z2, 2), z);
  z11 = fe_mul(z9, z2);
  const Fe e5 = fe_mul(fe_sq(z11), z9);             // 2^5 - 1
  const Fe e10 = fe_mul(fe_sqn(e5, 5), e5);         // 2^10 - 1
  const Fe e20 = fe_mul(fe_sqn(e10, 10), e10);      // 2^20 - 1
  const Fe e40 = fe_mul(fe_sqn(e20, 20), e20);      // 2^40 - 1
  const Fe e50 = fe_mul(fe_sqn(e40, 10), e10);      // 2^50 - 1
  const Fe e100 = fe_mul(fe_sqn(e50, 50), e50);     // 2^100 - 1
  const Fe e200 = fe_mul(fe_sqn(e100, 100), e100);  // 2^200 - 1
  return fe_mul(fe_sqn(e200, 50), e50);             // 2^250 - 1
}

/// z^(p-2) = z^(2^255 - 21) = z^-1.
Fe fe_invert(const Fe& z) {
  Fe z11;
  const Fe e250 = fe_pow2250m1(z, z11);
  return fe_mul(fe_sqn(e250, 5), z11);
}

/// z^((p-5)/8) = z^(2^252 - 3), the square-root helper of point decoding.
Fe fe_pow22523(const Fe& z) {
  Fe z11;
  const Fe e250 = fe_pow2250m1(z, z11);
  return fe_mul(fe_sqn(e250, 2), z);
}

// --- Group arithmetic: twisted-Edwards a = -1 ---------------------------------
// The point representations of Bernstein et al. (CHES 2011): extended
// (X:Y:Z:T), projective (X:Y:Z), "completed" ((X:Z), (Y:T)) as produced by
// one addition or doubling, and the two addition-ready forms — Cached
// (Y+X, Y-X, Z, 2dT) and the affine Precomp (y+x, y-x, 2dxy).

struct P2 {
  Fe X, Y, Z;
};
struct P3 {
  Fe X, Y, Z, T;
};
struct Completed {
  Fe X, Y, Z, T;
};
struct Cached {
  Fe YplusX, YminusX, Z, T2d;
};
struct Precomp {
  Fe yplusx, yminusx, xy2d;
};

constexpr P3 kIdentity = {kZero, kOne, kOne, kZero};

P2 to_p2(const Completed& c) {
  return {fe_mul(c.X, c.T), fe_mul(c.Y, c.Z), fe_mul(c.Z, c.T)};
}

P3 to_p3(const Completed& c) {
  return {fe_mul(c.X, c.T), fe_mul(c.Y, c.Z), fe_mul(c.Z, c.T), fe_mul(c.X, c.Y)};
}

P2 to_p2(const P3& p) { return {p.X, p.Y, p.Z}; }

Cached to_cached(const P3& p) {
  return {fe_add(p.Y, p.X), fe_sub(p.Y, p.X), p.Z, fe_mul(p.T, kD2)};
}

Completed dbl(const P2& p) {
  const Fe xx = fe_sq(p.X);
  const Fe yy = fe_sq(p.Y);
  const Fe zz = fe_sq(p.Z);
  const Fe b = fe_add(zz, zz);
  const Fe aa = fe_sq(fe_add(p.X, p.Y));
  Completed r;
  r.Y = fe_add(yy, xx);
  r.Z = fe_sub(yy, xx);
  r.X = fe_sub(aa, r.Y);
  r.T = fe_sub(b, r.Z);
  return r;
}

/// p + q, or p - q when `negate` (public data only: branches on it).
Completed add(const P3& p, const Cached& q, bool negate = false) {
  const Fe a = fe_mul(fe_sub(p.Y, p.X), negate ? q.YplusX : q.YminusX);
  const Fe b = fe_mul(fe_add(p.Y, p.X), negate ? q.YminusX : q.YplusX);
  const Fe c = fe_mul(p.T, q.T2d);
  const Fe zz = fe_mul(p.Z, q.Z);
  const Fe d = fe_add(zz, zz);
  return {fe_sub(b, a), fe_add(b, a), negate ? fe_sub(d, c) : fe_add(d, c),
          negate ? fe_add(d, c) : fe_sub(d, c)};
}

/// p + q for an affine q: one multiplication cheaper than add().
Completed madd(const P3& p, const Precomp& q) {
  const Fe a = fe_mul(fe_sub(p.Y, p.X), q.yminusx);
  const Fe b = fe_mul(fe_add(p.Y, p.X), q.yplusx);
  const Fe c = fe_mul(p.T, q.xy2d);
  const Fe d = fe_add(p.Z, p.Z);
  return {fe_sub(b, a), fe_add(b, a), fe_add(d, c), fe_sub(d, c)};
}

void encode(u8* out, const P3& p) {
  const Fe zi = fe_invert(p.Z);
  fe_tobytes(out, fe_mul(p.Y, zi));
  out[31] ^= static_cast<u8>(fe_parity(fe_mul(p.X, zi)) << 7);
}

/// Decode `s` into -P (x negated: the form verification consumes). Strict
/// per RFC 8032 §5.1.3: false for y >= p, for y with no x on the curve, and
/// for x = 0 with the sign bit set.
bool decode_neg(P3& r, const u8* s) {
  const Fe y = fe_frombytes(s);
  u8 canonical[32];
  fe_tobytes(canonical, y);
  canonical[31] |= s[31] & 0x80;
  if (std::memcmp(canonical, s, 32) != 0) return false;

  const Fe yy = fe_sq(y);
  const Fe u = fe_sub(yy, kOne);             // y^2 - 1
  const Fe v = fe_add(fe_mul(yy, kD), kOne);  // d y^2 + 1
  const Fe v3 = fe_mul(fe_sq(v), v);
  // x = u v^3 (u v^7)^((p-5)/8), then fix up by sqrt(-1) if needed.
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, fe_mul(fe_sq(v3), v))));
  const Fe vxx = fe_mul(v, fe_sq(x));
  if (!fe_equal(vxx, u)) {
    if (!fe_equal(vxx, fe_neg(u))) return false;
    x = fe_mul(x, kSqrtM1);
  }
  const u8 sign = s[31] >> 7;
  if (sign && fe_is_zero(x)) return false;
  if (fe_parity(x) == sign) x = fe_neg(x);
  r = {x, y, kOne, fe_mul(x, y)};
  return true;
}

P3 base_point() { return {kBaseX, kBaseY, kOne, fe_mul(kBaseX, kBaseY)}; }

// --- Fixed-base multiplication (secret scalars: keygen, signing) -------------
// Signed radix-16: s = sum e_i 16^i with e_i in [-8, 8]. Table row i holds
// j·256^i·B for j = 1..8, so the odd digits are summed first, multiplied by
// 16, and the even digits added on top: 64 mixed additions and 4 doublings.
// Each row lookup scans all 8 entries with constant-time moves, and the sign
// is applied by a constant-time conditional negation.

struct BaseTable {
  Precomp rows[32][8];
};

Precomp to_precomp(const P3& p) {
  const Fe zi = fe_invert(p.Z);
  const Fe x = fe_mul(p.X, zi);
  const Fe y = fe_mul(p.Y, zi);
  return {fe_carry(fe_add(y, x)), fe_sub(y, x), fe_mul(fe_mul(x, y), kD2)};
}

BaseTable build_base_table() {
  BaseTable t;
  P3 row_base = base_point();  // 256^i·B
  for (auto& row : t.rows) {
    const Cached step = to_cached(row_base);
    P3 acc = row_base;
    for (int j = 0; j < 8; ++j) {
      row[j] = to_precomp(acc);
      if (j < 7) acc = to_p3(add(acc, step));
    }
    for (int d = 0; d < 8; ++d) row_base = to_p3(dbl(to_p2(row_base)));
  }
  return t;
}

const BaseTable& base_table() {
  static const BaseTable table = build_base_table();  // thread-safe init
  return table;
}

/// Constant-time lookup of b·row[0] from row = {1..8}·P, for b in [-8, 8].
Precomp select(const Precomp (&row)[8], i64 b) {
  const u64 negative = static_cast<u64>(b) >> 63;
  const u64 babs = static_cast<u64>(b - 2 * (-static_cast<i64>(negative) & b));
  Precomp t = {kOne, kOne, kZero};  // the identity
  for (u64 j = 0; j < 8; ++j) {
    const u64 equal = ((babs ^ (j + 1)) - 1) >> 63;
    const Precomp& e = row[j];
    fe_cmov(t.yplusx, e.yplusx, equal);
    fe_cmov(t.yminusx, e.yminusx, equal);
    fe_cmov(t.xy2d, e.xy2d, equal);
  }
  const Precomp minus = {t.yminusx, t.yplusx, fe_neg(t.xy2d)};
  fe_cmov(t.yplusx, minus.yplusx, negative);
  fe_cmov(t.yminusx, minus.yminusx, negative);
  fe_cmov(t.xy2d, minus.xy2d, negative);
  return t;
}

/// s·B for a 32-byte scalar with s[31] <= 127, constant time.
P3 scalarmult_base(const u8* s) {
  i64 e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = s[i] & 15;
    e[2 * i + 1] = s[i] >> 4;
  }
  i64 carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] += carry;
    carry = (e[i] + 8) >> 4;
    e[i] -= carry * 16;
  }
  e[63] += carry;

  const BaseTable& table = base_table();
  P3 h = kIdentity;
  for (int i = 1; i < 64; i += 2) h = to_p3(madd(h, select(table.rows[i / 2], e[i])));
  P2 r = to_p2(h);
  for (int d = 0; d < 3; ++d) r = to_p2(dbl(r));
  h = to_p3(dbl(r));
  for (int i = 0; i < 64; i += 2) h = to_p3(madd(h, select(table.rows[i / 2], e[i])));
  return h;
}

// --- Variable-time multi-scalar multiplication (public data: verification) ---
// Straus's interleaving: every scalar is recoded into width-5 NAF (odd digits
// in [-15, 15], at most one nonzero per 5 positions) against a table of its
// point's odd multiples P, 3P, ..., 15P, and all terms share one chain of
// doublings.

struct Term {
  std::array<std::int8_t, 256> naf;
  int top;  ///< highest nonzero digit, -1 for a zero scalar
  std::array<Cached, 8> odd;
};

/// Width-5 NAF of a 32-byte little-endian scalar below 2^255.
int wnaf5(std::array<std::int8_t, 256>& naf, const u8* s) {
  u64 x[5] = {};
  for (int i = 0; i < 32; ++i) x[i / 8] |= u64{s[i]} << (8 * (i % 8));
  naf.fill(0);
  int top = -1;
  u64 carry = 0;
  for (int pos = 0; pos < 256;) {
    const int word = pos / 64, bit = pos % 64;
    u64 bits = x[word] >> bit;
    if (bit > 59) bits |= x[word + 1] << (64 - bit);
    const u64 window = carry + (bits & 31);
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    carry = window >> 4;
    naf[pos] = static_cast<std::int8_t>(static_cast<i64>(window) - static_cast<i64>(carry << 5));
    top = pos;
    pos += 5;
  }
  return top;
}

std::array<Cached, 8> odd_multiples(const P3& p) {
  std::array<Cached, 8> odd;
  odd[0] = to_cached(p);
  const Cached twice = to_cached(to_p3(dbl(to_p2(p))));
  P3 acc = p;
  for (int i = 1; i < 8; ++i) {
    acc = to_p3(add(acc, twice));
    odd[i] = to_cached(acc);
  }
  return odd;
}

const std::array<Cached, 8>& base_odd_multiples() {
  static const std::array<Cached, 8> odd = odd_multiples(base_point());
  return odd;
}

void set_term(Term& t, const u8* scalar, const std::array<Cached, 8>& odd) {
  t.top = wnaf5(t.naf, scalar);
  t.odd = odd;
}

/// sum of scalar_i·P_i over `terms`.
P3 multiscalar_vartime(std::span<const Term> terms) {
  int top = -1;
  for (const Term& t : terms) top = std::max(top, t.top);
  if (top < 0) return kIdentity;
  P2 r = to_p2(kIdentity);
  for (int i = top;; --i) {
    Completed c = dbl(r);
    for (const Term& t : terms) {
      const int digit = t.naf[i];
      if (digit > 0) c = add(to_p3(c), t.odd[digit / 2]);
      if (digit < 0) c = add(to_p3(c), t.odd[-digit / 2], /*negate=*/true);
    }
    if (i == 0) return to_p3(c);
    r = to_p2(c);
  }
}

// --- Scalar arithmetic mod L ------------------------------------------------

/// r = x mod L, for x given as 64 limbs of (possibly large) byte products.
void modL(u8* r, i64 x[64]) {
  i64 carry;
  for (int i = 63; i >= 32; --i) {
    carry = 0;
    int j;
    for (j = i - 32; j < i - 12; ++j) {
      x[j] += carry - 16 * x[i] * kL[j - (i - 32)];
      carry = (x[j] + 128) >> 8;
      x[j] -= carry << 8;
    }
    x[j] += carry;
    x[i] = 0;
  }
  carry = 0;
  for (int j = 0; j < 32; ++j) {
    x[j] += carry - (x[31] >> 4) * kL[j];
    carry = x[j] >> 8;
    x[j] &= 255;
  }
  for (int j = 0; j < 32; ++j) x[j] -= carry * kL[j];
  for (int i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    r[i] = static_cast<u8>(x[i] & 255);
  }
}

/// Reduce a 64-byte hash into its first 32 bytes mod L.
void reduce64(u8* r) {
  i64 x[64];
  for (int i = 0; i < 64; ++i) x[i] = r[i];
  for (int i = 0; i < 64; ++i) r[i] = 0;
  modL(r, x);
}

/// s < L (little-endian compare): rejects non-canonical (malleable) scalars.
bool scalar_canonical(const u8* s) {
  for (int i = 31; i >= 0; --i) {
    if (s[i] < kL[i]) return true;
    if (s[i] > kL[i]) return false;
  }
  return false;  // s == L
}

Digest64 challenge(const u8* r_bytes, const PublicKey& pk, BytesView message) {
  Sha512 h;
  h.update(BytesView(r_bytes, 32));
  h.update(BytesView(pk.data(), pk.size()));
  h.update(message);
  Digest64 k = h.finish();
  reduce64(k.data());
  return k;
}

}  // namespace

KeyPair keypair_from_seed(const Seed& seed) {
  Digest64 h = sha512(BytesView(seed.data(), seed.size()));
  h[0] &= 248;
  h[31] &= 127;
  h[31] |= 64;
  KeyPair kp;
  kp.seed = seed;
  encode(kp.public_key.data(), scalarmult_base(h.data()));
  return kp;
}

Signature sign(const KeyPair& kp, BytesView message) {
  Digest64 h = sha512(BytesView(kp.seed.data(), kp.seed.size()));
  h[0] &= 248;
  h[31] &= 127;
  h[31] |= 64;  // h[0..32) = clamped secret scalar d, h[32..64) = prefix

  Sha512 hasher;
  hasher.update(BytesView(h.data() + 32, 32));
  hasher.update(message);
  Digest64 r = hasher.finish();
  reduce64(r.data());

  Signature sig{};
  encode(sig.data(), scalarmult_base(r.data()));

  const Digest64 k = challenge(sig.data(), kp.public_key, message);

  i64 x[64] = {};
  for (int i = 0; i < 32; ++i) x[i] = r[i];
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      x[i + j] += static_cast<i64>(k[i]) * h[j];  // s = r + H(R,A,M)·d mod L
    }
  }
  modL(sig.data() + 32, x);
  return sig;
}

bool verify(const PublicKey& pk, BytesView message, const Signature& sig) {
  if (!scalar_canonical(sig.data() + 32)) return false;
  P3 minus_a;
  if (!decode_neg(minus_a, pk.data())) return false;

  const Digest64 k = challenge(sig.data(), pk, message);

  Term terms[2];
  set_term(terms[0], k.data(), odd_multiples(minus_a));       // H(R,A,M)·(-A)
  set_term(terms[1], sig.data() + 32, base_odd_multiples());  // s·B
  u8 t[32];
  encode(t, multiscalar_vartime(terms));
  return std::memcmp(sig.data(), t, 32) == 0;
}

bool verify_batch(std::span<const BatchItem> items, Rng& rng) {
  if (items.empty()) return true;

  // Check  sum z_i·(-R_i) + sum (z_i·h_i mod L)·(-A_i) + (sum z_i·s_i)·B
  // lands on the identity, as one multi-scalar multiplication over all
  // 2n+1 points. Items are decoded and the z_i drawn in item order, so the
  // Rng stream consumed is a function of the items alone.
  i64 s_sum[64] = {};
  std::vector<Term> terms(2 * items.size() + 1);

  for (std::size_t n = 0; n < items.size(); ++n) {
    const BatchItem& item = items[n];
    const u8* sig = item.signature->data();
    if (!scalar_canonical(sig + 32)) return false;
    P3 minus_a, minus_r;
    if (!decode_neg(minus_a, item.public_key->data())) return false;
    if (!decode_neg(minus_r, sig)) return false;

    u8 z[32] = {};  // 128-bit coefficient, zero-extended to a scalar
    do {
      std::uint64_t lo = rng.next_u64(), hi = rng.next_u64();
      for (int i = 0; i < 8; ++i) {
        z[i] = static_cast<u8>(lo >> (8 * i));
        z[8 + i] = static_cast<u8>(hi >> (8 * i));
      }
    } while (std::all_of(z, z + 16, [](u8 b) { return b == 0; }));

    for (int i = 0; i < 16; ++i) {
      for (int j = 0; j < 32; ++j) {
        s_sum[i + j] += static_cast<i64>(z[i]) * sig[32 + j];
      }
    }

    const Digest64 h = challenge(sig, *item.public_key, item.message);
    i64 zh[64] = {};
    for (int i = 0; i < 16; ++i) {
      for (int j = 0; j < 32; ++j) {
        zh[i + j] += static_cast<i64>(z[i]) * h[j];
      }
    }
    u8 w[32];
    modL(w, zh);

    set_term(terms[2 * n], z, odd_multiples(minus_r));      // z_i·(-R_i), 128-bit z_i
    set_term(terms[2 * n + 1], w, odd_multiples(minus_a));  // (z_i·h_i)·(-A_i)
  }

  u8 s_total[32];
  modL(s_total, s_sum);
  set_term(terms.back(), s_total, base_odd_multiples());

  const P3 acc = multiscalar_vartime(terms);
  return fe_is_zero(acc.X) && fe_equal(acc.Y, acc.Z);
}

}  // namespace dauct::crypto::ed25519
