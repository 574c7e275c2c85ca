/* CRC-32 (IEEE 802.3, bit-reflected) folded 64 bytes at a time with
   carry-less multiplies, then Barrett-reduced to 32 bits: the method of
   Gopal et al., "Fast CRC Computation for Generic Polynomials Using
   PCLMULQDQ Instruction" (Intel, 2009), which zlib and Linux also use.

   [rina_crc32_fold] takes the running CRC register (not inverted at
   either end) and returns it after [len] more bytes.  [len] must be a
   multiple of 16 and at least 64; Sdu_protection checks the range and
   finishes the tail.  Nothing here allocates or keeps state, so any
   domain may call it. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)

#include <cpuid.h>
#include <immintrin.h>

/* The paper's constants for P = 0x104C11DB7, bit-reflected: k1/k2 move
   a lane 512 bits ahead, k3/k4 move it 128 bits ahead, k5 folds 64 bits
   down to 32, and the last pair is P itself and the Barrett quotient
   floor(x^64 / P). */
static const uint64_t k1k2[2] = { 0x0154442bd4, 0x01c6e41596 };
static const uint64_t k3k4[2] = { 0x01751997d0, 0x00ccaa009e };
static const uint64_t k5k0[2] = { 0x0163cd6124, 0x0000000000 };
static const uint64_t poly[2] = { 0x01db710641, 0x01f7011641 };

#define LOAD(p) _mm_loadu_si128((const __m128i *)(p))

/* Multiply both halves of [x] by the two constants in [k] and add
   [next]: one 128-bit lane moved forward by the distance [k] encodes. */
#define FOLD(x, k, next)                                       \
  _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), \
                              _mm_clmulepi64_si128(x, k, 0x11)), \
                next)

__attribute__((target("pclmul")))
static uint32_t fold(const uint8_t *buf, size_t len, uint32_t crc)
{
  __m128i x1 = LOAD(buf), x2 = LOAD(buf + 16), x3 = LOAD(buf + 32),
          x4 = LOAD(buf + 48);
  __m128i k = LOAD(k1k2);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i t;

  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)crc));
  buf += 64;
  len -= 64;

  /* Four independent lanes, each folded 512 bits ahead per block. */
  while (len >= 64) {
    x1 = FOLD(x1, k, LOAD(buf));
    x2 = FOLD(x2, k, LOAD(buf + 16));
    x3 = FOLD(x3, k, LOAD(buf + 32));
    x4 = FOLD(x4, k, LOAD(buf + 48));
    buf += 64;
    len -= 64;
  }

  /* Collapse the four lanes into one, then fold in 16-byte blocks. */
  k = LOAD(k3k4);
  x1 = FOLD(x1, k, x2);
  x1 = FOLD(x1, k, x3);
  x1 = FOLD(x1, k, x4);
  while (len >= 16) {
    x1 = FOLD(x1, k, LOAD(buf));
    buf += 16;
    len -= 16;
  }

  /* Fold the 128-bit lane down to 96 bits, then to 64. */
  t = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  k = LOAD(k5k0);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x00), t);

  /* Barrett reduction of those 64 bits to the 32-bit register. */
  k = LOAD(poly);
  t = _mm_and_si128(x1, low32);
  t = _mm_clmulepi64_si128(t, k, 0x10);
  t = _mm_and_si128(t, low32);
  t = _mm_clmulepi64_si128(t, k, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return (uint32_t)_mm_cvtsi128_si32(_mm_srli_si128(x1, 4));
}

static int clmul_supported(void)
{
  unsigned int a, b, c, d;
  return __get_cpuid(1, &a, &b, &c, &d) && (c & bit_PCLMUL) != 0;
}

#else

/* Not x86-64: [clmul_supported] is false, so Sdu_protection never calls
   the fold and runs its table loop alone. */
static uint32_t fold(const uint8_t *buf, size_t len, uint32_t crc)
{
  (void)buf;
  (void)len;
  return crc;
}

static int clmul_supported(void) { return 0; }

#endif

value rina_crc32_clmul_supported(value unit)
{
  (void)unit;
  return Val_bool(clmul_supported());
}

intnat rina_crc32_fold(value buf, intnat pos, intnat len, intnat crc)
{
  return fold((const uint8_t *)Bytes_val(buf) + pos, (size_t)len,
              (uint32_t)crc);
}

value rina_crc32_fold_byte(value buf, value pos, value len, value crc)
{
  return Val_long(rina_crc32_fold(buf, Long_val(pos), Long_val(len),
                                  Long_val(crc)));
}
