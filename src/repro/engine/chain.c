/* The join chain of engine/kernels.py (docs/kernels.md): all joins of a
   row range in one call, block by block, behind the filter stages of its
   selections.  Per stage, one branch-free pass over the rows alive tests
   each row's key and compacts the row index; build tids are written for
   survivors only, and a filter writes none.  Tids and keys keep take's
   index rule: a negative one counts from the end, one outside [-len, len)
   fails the whole call. */
#include <stdint.h>
#include <string.h>
#if !defined(CHAIN_SCALAR) && defined(__x86_64__) && defined(__has_include)
#if __has_include(<immintrin.h>) && (__GNUC__ >= 7 || __clang_major__ >= 5)
#define VECTOR_STAGES
#endif
#endif
#ifdef VECTOR_STAGES
/* Vector forms of the int32 stages in mode 0 over the range or the row
   index (src null), 16 rows an iteration: the keys loaded at start +
   row, or gathered 8 at a time at the index's rows; per lane the steps
   of KIND below — the row's bounds check, the key's wrap-subtracted
   slot, a negative one plus nslots, the slot's bounds check (any lane
   out of range fails the call), the slot fetched and tested — then the
   surviving rows compressed into idx.  A byte table of at most 1024
   slots is packed into bits held in two registers; a longer one is
   gathered 4 bytes at min(q, nslots - 4) and shifted down to byte q, so
   no gather reads past the table.  A table too long for 32-bit lanes
   runs scalar.  Returns the rows done (the scalar loop finishes the
   rest), their survivors in *kept; -1 fails.  AVX-512F, chosen once per
   process when the library loads. */
#include <immintrin.h>
#define WIDE __attribute__((target("avx512f,popcnt")))
enum { ALL, BYTES, TABLE };
static int avx512;
__attribute__((constructor)) static void pick(void)
{
    __builtin_cpu_init();
    avx512 = __builtin_cpu_supports("avx512f")
             && __builtin_cpu_supports("popcnt");
}
static inline __attribute__((always_inline)) WIDE int64_t
wide(const int64_t *g, int64_t start, const int64_t *in, int64_t *idx,
     int64_t j, int64_t *kept, int slot, int shifted)
{
    const int32_t *col = (const int32_t *)g[1];
    const void *slots = (const void *)g[3];
    const int64_t ncol = g[2], nslots = g[4];
    int64_t m = 0, k = 0;
    uint32_t bits[32] = {0};  /* a byte table of <= 1024 slots, as bits */
    if (j < 16 || (slot != ALL && nslots > INT32_MAX))
        return 0;
    for (int64_t i = 0; slot == BYTES && nslots <= 1024 && i < nslots; i++)
        bits[i >> 5] |= (uint32_t)(((const uint8_t *)slots)[i] != 0)
                        << (i & 31);
    const __m512i shift = _mm512_set1_epi32(shifted ? (int32_t)g[5] : 0),
        count = _mm512_set1_epi32((int32_t)nslots),
        last = _mm512_set1_epi32((int32_t)(nslots - 4)),
        lanes = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
        first = _mm512_set1_epi64(start), bound = _mm512_set1_epi64(ncol),
        low = _mm512_loadu_si512(bits), high = _mm512_loadu_si512(bits + 16);
    for (; m + 16 <= j; m += 16) {
        __m512i lo, hi, keys, q, s;
        if (in) {
            lo = _mm512_loadu_si512(in + m);
            hi = _mm512_loadu_si512(in + m + 8);
            __m512i plo = _mm512_add_epi64(lo, first),
                    phi = _mm512_add_epi64(hi, first);
            if ((_mm512_cmplt_epu64_mask(plo, bound)
                 & _mm512_cmplt_epu64_mask(phi, bound)) != 0xff)
                return -1;
            keys = slot == ALL ? lo : _mm512_inserti64x4(
                _mm512_castsi256_si512(_mm512_i64gather_epi32(plo, col, 4)),
                _mm512_i64gather_epi32(phi, col, 4), 1);
        } else {
            if (start + m + 16 > ncol)
                break;  /* the scalar loop fails the call */
            lo = _mm512_add_epi64(lanes, _mm512_set1_epi64(m));
            hi = _mm512_add_epi64(lo, _mm512_set1_epi64(8));
            keys = slot == ALL ? lo : _mm512_loadu_si512(col + start + m);
        }
        __mmask16 hit = 0xffff;
        if (slot != ALL) {
            q = _mm512_sub_epi32(keys, shift);
            q = _mm512_add_epi32(q, _mm512_and_si512(
                _mm512_srai_epi32(q, 31), count));
            if (_mm512_cmplt_epu32_mask(q, count) != 0xffff)
                return -1;
            if (slot == TABLE) {
                s = _mm512_i32gather_epi32(q, slots, 4);
                hit = _mm512_cmpge_epi32_mask(s, _mm512_setzero_si512());
            } else if (nslots <= 1024) {
                s = _mm512_srlv_epi32(_mm512_permutex2var_epi32(
                    low, _mm512_srli_epi32(q, 5), high), _mm512_and_si512(
                    q, _mm512_set1_epi32(31)));
                hit = _mm512_test_epi32_mask(s, _mm512_set1_epi32(1));
            } else {
                __m512i at = _mm512_min_epu32(q, last);
                s = _mm512_srlv_epi32(_mm512_i32gather_epi32(
                    at, slots, 1), _mm512_slli_epi32(
                    _mm512_sub_epi32(q, at), 3));
                hit = _mm512_test_epi32_mask(s, _mm512_set1_epi32(0xff));
            }
        }
        _mm512_storeu_si512(idx + k, _mm512_maskz_compress_epi64(hit, lo));
        k += __builtin_popcount(hit & 0xff);
        _mm512_storeu_si512(idx + k, _mm512_maskz_compress_epi64(hit >> 8, hi));
        k += __builtin_popcount(hit >> 8);
    }
    *kept = k;
    return m;
}
#define WIDE_KIND(NAME, SLOT, SHIFTED)                                    \
static WIDE int64_t wide_##NAME(const int64_t *g, int64_t start,         \
                                const int64_t *in, int64_t *idx,         \
                                int64_t j, int64_t *kept)                \
{                                                                        \
    return wide(g, start, in, idx, j, kept, SLOT, SHIFTED);              \
}
WIDE_KIND(all, ALL, 0)
WIDE_KIND(dense, BYTES, 0)
WIDE_KIND(lookup, TABLE, 1)
WIDE_KIND(filter, BYTES, 1)
#define V32(kind) wide_##kind
#else
#define avx512 0
#define V32(kind) narrow
#endif
#define V64(kind) narrow
#define narrow(...) 0
/* One kind of stage: key type K, slot type S (a bool slot's byte, 0 or
   1, is its hit); the keys are read at src[row], or at start + row where
   src is null.  Mode 0 tests the rows alive and compacts their index,
   by VEC's whole vectors first where it has a vector form; mode 1
   writes the build tids of the rows in idx by row, mode 2 in order. */
#define KIND(NAME, K, S, SHIFT, LOAD, FETCH, HIT, OUT, VEC)               \
static int64_t NAME(const int64_t *g, const int64_t *src, int64_t start, \
                    const int64_t *in, int64_t *idx, int64_t j,          \
                    int64_t *dst, int64_t mode)                          \
{                                                                        \
    const K *col = (const K *)g[1];                                      \
    const S *slots = (const S *)g[3];                                    \
    const int64_t ncol = g[2], nslots = g[4], base = g[5];               \
    int64_t kept = 0, m = 0;                                             \
    (void)slots;                                                         \
    if (mode == 0 && !src && avx512                                      \
        && (m = VEC(g, start, in, idx, j, &kept)) < 0)                   \
        return -1;                                                       \
    for (; mode == 0 && m < j; m++) {                                    \
        int64_t r = in ? in[m] : m, p = src ? src[r] : start + r;        \
        p += src && p < 0 ? ncol : 0;                                    \
        if ((uint64_t)p >= (uint64_t)ncol) return -1;                    \
        K k = col[p];                                                    \
        int64_t q = (K)((uint64_t)k - (uint64_t)(SHIFT));                \
        if (q < 0) q += nslots;                                          \
        LOAD                                                             \
        idx[kept] = r;                                                   \
        kept += HIT;                                                     \
    }                                                                    \
    for (int64_t m = 0; mode && m < j; m++) {                            \
        int64_t r = idx[m], p = src ? src[r] : start + r;                \
        K k = col[p < 0 ? p + ncol : p];                                 \
        int64_t q = (K)((uint64_t)k - (uint64_t)(SHIFT));                \
        if (q < 0) q += nslots;                                          \
        FETCH                                                            \
        dst[mode == 1 ? r : m] = OUT;                                    \
    }                                                                    \
    return kept;                                                         \
}
#define SLOT if ((uint64_t)q >= (uint64_t)nslots) return -1; FETCH
#define FETCH __typeof__(*slots) s = slots[q];
#define DENSE (int64_t)((uint64_t)k - (uint64_t)base)
/* A filter tests bool slots[key - base], as a dense stage tests its key
   mask, and adds no table: it has no tids to write. */
#define KINDS(B, K)                                                       \
KIND(all##B, K, uint8_t, 0, , , 1, DENSE, V##B(all))                     \
KIND(dense##B, K, uint8_t, 0, SLOT, , s, DENSE, V##B(dense))             \
KIND(lookup##B##_32, K, int32_t, base, SLOT, FETCH, s >= 0, s,           \
     V##B(lookup))                                                       \
KIND(lookup##B##_64, K, int64_t, base, SLOT, FETCH, s >= 0, s, narrow)   \
KIND(filter##B, K, uint8_t, base, SLOT, , s, 0, V##B(filter))
KINDS(32, int32_t)
KINDS(64, int64_t)
static int64_t (*const STAGES[])(const int64_t *, const int64_t *, int64_t,
                                 const int64_t *, int64_t *, int64_t,
                                 int64_t *, int64_t) = {
    all32, dense32, lookup32_32, lookup32_64, filter32,
    all64, dense64, lookup64_32, lookup64_64, filter64};
#define FILTER(kind) ((kind) % 5 == 4)

/* spec: 8 words per stage — kind, keys, their count, slots, their
   count, base, where the keys are read (0: at start + row; t <= nentry:
   at entry table t's tids; nentry + 1 + s: at stage s's), whether a
   later stage reads keys there — then the tids of each entry table (0:
   start + row).  Rows [start, start + rows) run in blocks of size rows
   (one block when there are none); each block writes its counts, the
   rows entering and after each stage, and appends each table's tids
   after the last stage to that table's run of rows words: the entry
   tables', then each join's build table's, in stage order.
   scratch: the row index, then each stage's build tids by row. */
int64_t chain(int64_t rows, int64_t start, int64_t size, const uint8_t *mask,
              const int64_t *spec, int64_t nstages, int64_t nentry,
              int64_t *scratch, int64_t *counts, int64_t *out)
{
    const int64_t *const *entry = (const int64_t *const *)(spec + 8 * nstages);
    const int64_t *src[nstages];
    int64_t *runs[nentry + nstages], nruns = nentry;
    for (int64_t s = 0; s < nstages; s++)
        nruns += !FILTER(spec[8 * s]);
    for (int64_t t = 0; t < nruns; t++)
        runs[t] = out + t * rows;
    for (int64_t lo = 0; lo < rows || lo == 0; lo += size) {
        const uint8_t *bits = mask ? mask + lo : 0;
        int64_t n = rows - lo < size ? rows - lo : size, first = start + lo;
        int64_t *idx = scratch, *count = counts + lo / size * (nstages + 1);
        int64_t j = mask ? 0 : n;
        for (int64_t i = 0; bits && i < n; i += 8) {  /* skip zero words */
            uint64_t word = 1;
            if (n - i >= 8)
                memcpy(&word, bits + i, 8);
            for (int64_t r = i; word && r < n && r < i + 8; r++) {
                idx[j] = r;
                j += bits[r] != 0;
            }
        }
        count[0] = j;
        for (int64_t s = 0; s < nstages; s++) {
            const int64_t *g = spec + 8 * s, at = g[6] - 1;
            src[s] = at < 0 ? 0 : at >= nentry ? scratch + (at - nentry + 1) * n
                   : entry[at] ? entry[at] + lo : 0;
            j = STAGES[g[0]](g, src[s], first, bits || s ? idx : 0, idx, j,
                             0, 0);
            if (j < 0)
                return -1;
            count[s + 1] = j;
            if (g[7])
                STAGES[g[0]](g, src[s], first, 0, idx, j,
                             scratch + (s + 1) * n, 1);
        }
        for (int64_t t = 0; t < nentry; runs[t++] += j)
            for (int64_t m = 0; m < j; m++)
                runs[t][m] = entry[t] ? entry[t][lo + idx[m]] : first + idx[m];
        for (int64_t s = 0, t = nentry; s < nstages; s++)
            if (!FILTER(spec[8 * s])) {
                STAGES[spec[8 * s]](spec + 8 * s, src[s], first, 0, idx, j,
                                    runs[t], 2);
                runs[t++] += j;
            }
    }
    return 0;
}
