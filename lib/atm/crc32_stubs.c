/* CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, initial value
   and final xor 0xFFFFFFFF), the checksum in every AAL5 trailer.

   Three kernels compute the same function:

   - [fold_wide] (x86-64 with AVX512F and VPCLMULQDQ): [fold]'s
     folding over 512-bit registers.  Four of them fold 256 input bytes
     per iteration and then fold into one, each 64 bytes onto the next;
     further 64-byte blocks fold in, and the register's four 128-bit
     lanes reduce to one.  It runs on inputs of 256 bytes or more and
     hands that lane to [fold_tail].
   - [fold] (x86-64 with PCLMULQDQ and SSE4.1): carry-less-multiply
     folding after Gopal, Ozturk et al., "Fast CRC Computation for
     Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009.
     Four 128-bit lanes fold 64 input bytes per iteration and then fold
     into one.  [fold_tail] consumes what is left of the 16-byte blocks
     in single 16-byte folds, and reduces the 128-bit remainder to 64
     and then to 32 bits (Barrett reduction), all with the paper's
     constants for the bit-reflected polynomial.  It runs on inputs of
     64 bytes or more, and of fewer than 256 where [fold_wide] runs;
     the last 0-15 bytes of either fold go through [slice8].
   - [slice8]: table-driven slicing-by-8, eight derived tables and one
     serial step per 8 bytes.  It assembles each word from single bytes,
     so it reads the same on either byte order.  It covers inputs
     shorter than 64 bytes, the tail after a fold, and every input on a
     host without the instructions (including non-x86-64 builds).

   CPUID and the input length alone choose the kernel.  The tables and
   the CPU check are written once, by [pegasus_crc32_init], which the
   OCaml module calls while it initialises, before any domain can
   reach [pegasus_crc32]; afterwards this file's state is read-only. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

#if defined(__x86_64__)
#define PEGASUS_CRC32_CLMUL 1
#include <immintrin.h>
#endif

static uint32_t table[8][256];

/* The widest kernel this host runs: 0 [slice8], 1 [fold], 2
   [fold_wide]. */
static int kernel;

/* Table k advances a byte that still has k zero bytes to go. */
static void build_tables(void)
{
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int bit = 0; bit < 8; bit++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (uint32_t n = 0; n < 256; n++) {
      uint32_t prev = table[k - 1][n];
      table[k][n] = table[0][prev & 0xff] ^ (prev >> 8);
    }
}

static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
         | (uint32_t)p[3] << 24;
}

static uint32_t slice8(uint32_t crc, const unsigned char *p, size_t len)
{
  while (len >= 8) {
    uint32_t lo = crc ^ load_le32(p);
    uint32_t hi = load_le32(p + 4);
    crc = table[7][lo & 0xff] ^ table[6][(lo >> 8) & 0xff]
          ^ table[5][(lo >> 16) & 0xff] ^ table[4][lo >> 24]
          ^ table[3][hi & 0xff] ^ table[2][(hi >> 8) & 0xff]
          ^ table[1][(hi >> 16) & 0xff] ^ table[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0)
    crc = table[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return crc;
}

#ifdef PEGASUS_CRC32_CLMUL

#define TARGET __attribute__((target("pclmul,sse4.1")))

/* Advance a 128-bit lane [x] past 16 * n bytes and add [next]: the two
   64-bit halves are multiplied by x^(128n+32) and x^(128n-32) mod P
   (bit-reflected, shifted left once), held in [k]'s low and high
   halves. */
TARGET static inline __m128i fold_into(__m128i x, __m128i k, __m128i next)
{
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

TARGET static inline __m128i load128(const unsigned char *p)
{
  return _mm_loadu_si128((const __m128i *)p);
}

/* The CRC register after the 128-bit lane [a] and the [len] bytes at
   [p]; [len] is a multiple of 16. */
TARGET static inline uint32_t fold_tail(__m128i a, const unsigned char *p,
                                        size_t len)
{
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  while (len >= 16) {
    a = fold_into(a, k3k4, load128(p));
    p += 16;
    len -= 16;
  }

  /* 128 -> 96 bits: the low half times x^(128-32) mod P, added to the
     high half.  Then 96 -> 64: the low 32 bits times x^64 mod P, added
     to the upper 64. */
  __m128i x = _mm_xor_si128(_mm_clmulepi64_si128(a, k3k4, 0x10),
                            _mm_srli_si128(a, 8));
  x = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
      _mm_srli_si128(x, 4));

  /* Barrett: q = (low 32 bits * mu) mod x^32, r = x + q * P; the
     remainder is r's second 32-bit word. */
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return (uint32_t)_mm_extract_epi32(_mm_xor_si128(x, q), 1);
}

/* The CRC register after [len] bytes at [p], from register [crc];
   [len] is at least 64 and a multiple of 16. */
TARGET static uint32_t fold(uint32_t crc, const unsigned char *p, size_t len)
{
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);

  __m128i a = _mm_xor_si128(load128(p), _mm_cvtsi32_si128((int)crc));
  __m128i b = load128(p + 16);
  __m128i c = load128(p + 32);
  __m128i d = load128(p + 48);
  p += 64;
  len -= 64;
  while (len >= 64) {
    a = fold_into(a, k1k2, load128(p));
    b = fold_into(b, k1k2, load128(p + 16));
    c = fold_into(c, k1k2, load128(p + 32));
    d = fold_into(d, k1k2, load128(p + 48));
    p += 64;
    len -= 64;
  }
  a = fold_into(a, k3k4, b);
  a = fold_into(a, k3k4, c);
  a = fold_into(a, k3k4, d);
  return fold_tail(a, p, len);
}

#define WIDE __attribute__((target("pclmul,sse4.1,avx512f,vpclmulqdq")))

/* [fold_into] on each 128-bit lane of [x]. */
WIDE static inline __m512i fold512_into(__m512i x, __m512i k, __m512i next)
{
  __m512i lo = _mm512_clmulepi64_epi128(x, k, 0x00);
  __m512i hi = _mm512_clmulepi64_epi128(x, k, 0x11);
  return _mm512_ternarylogic_epi64(lo, hi, next, 0x96); /* lo ^ hi ^ next */
}

WIDE static inline __m512i load512(const unsigned char *p)
{
  return _mm512_loadu_si512((const void *)p);
}

/* [fold] over 512-bit registers; [len] is at least 256 and a multiple
   of 16. */
WIDE static uint32_t fold_wide(uint32_t crc, const unsigned char *p,
                               size_t len)
{
  /* Each lane advances past 256 bytes (x^(2048+32) and x^(2048-32) mod
     P), then past 64 ([fold]'s k1 and k2). */
  const __m512i k16 =
      _mm512_broadcast_i32x4(_mm_set_epi64x(0x1322d1430, 0x11542778a));
  const __m512i k4 =
      _mm512_broadcast_i32x4(_mm_set_epi64x(0x1c6e41596, 0x154442bd4));
  /* Lanes 0, 1 and 2 advance past 48, 32 and 16 bytes to meet lane 3:
     x^(128n+32) and x^(128n-32) mod P for n = 3, 2 and 1. */
  const __m512i lanes = _mm512_set_epi64(0, 0, 0x0ccaa009e, 0x1751997d0,
                                         0x15a546366, 0xf1da05aa,
                                         0x174359406, 0x3db1ecdc);

  __m512i a = _mm512_xor_si512(load512(p), _mm512_maskz_set1_epi32(1, (int)crc));
  __m512i b = load512(p + 64);
  __m512i c = load512(p + 128);
  __m512i d = load512(p + 192);
  p += 256;
  len -= 256;
  while (len >= 256) {
    a = fold512_into(a, k16, load512(p));
    b = fold512_into(b, k16, load512(p + 64));
    c = fold512_into(c, k16, load512(p + 128));
    d = fold512_into(d, k16, load512(p + 192));
    p += 256;
    len -= 256;
  }
  a = fold512_into(a, k4, b);
  a = fold512_into(a, k4, c);
  a = fold512_into(a, k4, d);
  while (len >= 64) {
    a = fold512_into(a, k4, load512(p));
    p += 64;
    len -= 64;
  }

  __m512i t = _mm512_xor_si512(_mm512_clmulepi64_epi128(a, lanes, 0x00),
                               _mm512_clmulepi64_epi128(a, lanes, 0x11));
  __m128i x = _mm_xor_si128(
      _mm_xor_si128(_mm512_castsi512_si128(t), _mm512_extracti32x4_epi32(t, 1)),
      _mm_xor_si128(_mm512_extracti32x4_epi32(t, 2),
                    _mm512_extracti32x4_epi32(a, 3)));
  return fold_tail(x, p, len);
}

#endif

/* Returns the widest kernel this host runs, as [kernel] numbers it. */
value pegasus_crc32_init(value unit)
{
  (void)unit;
  build_tables();
#ifdef PEGASUS_CRC32_CLMUL
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"))
    kernel = __builtin_cpu_supports("avx512f")
                     && __builtin_cpu_supports("vpclmulqdq")
                 ? 2
                 : 1;
#endif
  return Val_int(kernel);
}

/* The OCaml caller has checked that [pos, pos + len) lies inside the
   buffer. */
intnat pegasus_crc32(value buf, intnat pos, intnat len)
{
  const unsigned char *p = Bytes_val(buf) + pos;
  size_t n = (size_t)len;
  uint32_t crc = 0xFFFFFFFFu;
#ifdef PEGASUS_CRC32_CLMUL
  if (kernel > 0 && n >= 64) {
    size_t blocks = n & ~(size_t)15;
    crc = kernel == 2 && n >= 256 ? fold_wide(crc, p, blocks)
                                  : fold(crc, p, blocks);
    p += blocks;
    n -= blocks;
  }
#endif
  return slice8(crc, p, n) ^ 0xFFFFFFFFu;
}

value pegasus_crc32_byte(value buf, value pos, value len)
{
  return Val_long(pegasus_crc32(buf, Long_val(pos), Long_val(len)));
}

/* Byte-range equality for the AAL5 framer's reuse check (Aal5.Framer).
   The OCaml caller has checked that both ranges lie inside their
   buffers. */
value pegasus_bytes_equal(value a, intnat apos, value b, intnat bpos,
                          intnat len)
{
  return Val_bool(memcmp(Bytes_val(a) + apos, Bytes_val(b) + bpos,
                         (size_t)len) == 0);
}

value pegasus_bytes_equal_byte(value a, value apos, value b, value bpos,
                               value len)
{
  return pegasus_bytes_equal(a, Long_val(apos), b, Long_val(bpos),
                             Long_val(len));
}
