/* The join chain of engine/kernels.py (docs/kernels.md): all joins of a
   row range in one call, block by block, behind the filter stages of its
   selections.  Per stage, one branch-free pass over the rows alive tests
   each row's key and compacts the row index; build tids are written for
   survivors only, and a filter writes none.  Tids and keys keep take's
   index rule: a negative one counts from the end, one outside [-len, len)
   fails the whole call. */
#include <stdint.h>
#include <string.h>
/* One kind of stage: key type K, slot type S (a bool slot's byte, 0 or
   1, is its hit); the keys are read at src[row], or at start + row where
   src is null.  Mode 0 tests the rows alive and compacts their index;
   mode 1 writes the build tids of the rows in idx by row, mode 2 in
   order. */
#define KIND(NAME, K, S, SHIFT, LOAD, FETCH, HIT, OUT)                    \
static int64_t NAME(const int64_t *g, const int64_t *src, int64_t start, \
                    const int64_t *in, int64_t *idx, int64_t j,          \
                    int64_t *dst, int64_t mode)                          \
{                                                                        \
    const K *col = (const K *)g[1];                                      \
    const S *slots = (const S *)g[3];                                    \
    const int64_t ncol = g[2], nslots = g[4], base = g[5];               \
    int64_t kept = 0;                                                    \
    (void)slots;                                                         \
    for (int64_t m = 0; mode == 0 && m < j; m++) {                       \
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
KIND(all##B, K, uint8_t, 0, , , 1, DENSE)                                \
KIND(dense##B, K, uint8_t, 0, SLOT, , s, DENSE)                          \
KIND(lookup##B##_32, K, int32_t, base, SLOT, FETCH, s >= 0, s)           \
KIND(lookup##B##_64, K, int64_t, base, SLOT, FETCH, s >= 0, s)           \
KIND(filter##B, K, uint8_t, base, SLOT, , s, 0)
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
