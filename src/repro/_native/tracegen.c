/* Native surrogate-trace synthesis: the emission loop of
 * repro.workloads.engine, straight into packed columns.
 *
 * Python builds each phase's pools (the S-pool shuffle consumes the
 * RNG), its draw thresholds and its skew window, then passes the
 * Mersenne Twister state of its random.Random.  This file continues
 * that stream exactly as CPython would:
 *
 *  - genrand_uint32 is Modules/_randommodule.c's MT19937 step;
 *  - random() is genrand_res53: two 32-bit draws,
 *    ((a >> 5) * 67108864 + (b >> 6)) / 2**53;
 *  - randrange(n) is _randbelow_with_getrandbits: getrandbits(k) with
 *    k = n.bit_length(), i.e. genrand >> (32 - k) for k <= 32,
 *    rejection-sampled until below n.  Pools of 2**32 or more never
 *    reach this file (the Python side keeps them).
 *
 * Every draw happens in the order engine._emit_phase makes it,
 * including the context-noise draw when the noise is 0, so the native
 * and Python generators emit byte-identical columns.  Compiled into
 * the repro._native.replaykernel module (see setup.py), which exports
 * tracegen_synthesize as `synthesize`.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER_MASK 0x80000000U
#define MT_LOWER_MASK 0x7fffffffU

/* Keep in sync with FLIP_BLOCKS_PER_SET / FLIP_LANE_STRIDE in engine.py. */
#define FLIP_BLOCKS_PER_SET 64
#define FLIP_LANE_STRIDE 65536

typedef struct {
    uint32_t mt[MT_N];
    int index;
} MTState;

static uint32_t
mt_next(MTState *s)
{
    static const uint32_t mag01[2] = {0x0U, MT_MATRIX_A};
    uint32_t *mt = s->mt;
    uint32_t y;

    if (s->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & MT_UPPER_MASK) | (mt[kk + 1] & MT_LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & MT_UPPER_MASK) | (mt[kk + 1] & MT_LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & MT_UPPER_MASK) | (mt[0] & MT_LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        s->index = 0;
    }
    y = mt[s->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static double
mt_random(MTState *s)
{
    uint32_t a = mt_next(s) >> 5, b = mt_next(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* randrange(n) for 1 <= n < 2**32. */
static int64_t
mt_randbelow(MTState *s, int64_t n)
{
    int k = 0;
    for (uint64_t v = (uint64_t)n; v; v >>= 1) {
        k++;
    }
    uint32_t r = mt_next(s) >> (32 - k);
    while ((int64_t)r >= n) {
        r = mt_next(s) >> (32 - k);
    }
    return (int64_t)r;
}

typedef struct {
    int64_t quota;
    double t_s, t_t, t_r, t_f, noise, random_isolated;
    int64_t store_threshold, skew_start, skew_width;
    int p_random;
    int64_t p_pool, p_base;
    int64_t *bursts;
    Py_ssize_t n_bursts;
    int64_t *s_blocks;
    Py_ssize_t n_s;
    int64_t transient_base, random_base, random_pool;
    int64_t flip_base, flip_pool, companion_base;
    /* Cursors, carried across visits of the same phase. */
    Py_ssize_t rotation, s_cursor;
    int64_t p_cursor, transients, flip_cursor, flip_lap, companions;
} Phase;

typedef struct {
    int64_t *addr;
    int8_t *kind;
    int64_t *gap;
    Py_ssize_t n, cap;
    int64_t n_sets, line_bytes, isolating_gap, burst_gap;
    int8_t load, store;
} Columns;

static int
overflow(void)
{
    PyErr_SetString(PyExc_OverflowError,
                    "surrogate address does not fit a signed 64-bit column");
    return -1;
}

static int
grow(Columns *c)
{
    Py_ssize_t cap = c->cap ? c->cap * 2 : 4096;
    int64_t *addr = (int64_t *)realloc(c->addr, (size_t)cap * sizeof(int64_t));
    if (addr) {
        c->addr = addr;
    }
    int8_t *kind = (int8_t *)realloc(c->kind, (size_t)cap);
    if (kind) {
        c->kind = kind;
    }
    int64_t *gap = (int64_t *)realloc(c->gap, (size_t)cap * sizeof(int64_t));
    if (gap) {
        c->gap = gap;
    }
    if (!addr || !kind || !gap) {
        PyErr_NoMemory();
        return -1;
    }
    c->cap = cap;
    return 0;
}

/* Python floor division/modulo for a positive divisor. */
static void
floor_divmod(int64_t x, int64_t d, int64_t *q, int64_t *r)
{
    int64_t quot = x / d, rem = x % d;
    if (rem < 0) {
        rem += d;
        quot -= 1;
    }
    *q = quot;
    *r = rem;
}

/* Append one record: skew remap, store hash, address multiply. */
static int
push(Columns *c, const Phase *p, int64_t block, int64_t gap)
{
    if (p->skew_width) {
        int64_t lane, offset, moved;
        floor_divmod(block, p->skew_width, &lane, &offset);
        if (__builtin_mul_overflow(lane, c->n_sets, &moved)
            || __builtin_add_overflow(moved, p->skew_start, &moved)
            || __builtin_add_overflow(moved, offset, &block)) {
            return overflow();
        }
    }
    /* (block * 2654435761) % 100 without the 64-bit overflow:
     * 2654435761 % 100 == 61. */
    int64_t hash, unused;
    floor_divmod(block, 100, &unused, &hash);
    hash = (hash * 61) % 100;
    int64_t address;
    if (__builtin_mul_overflow(block, c->line_bytes, &address)) {
        return overflow();
    }
    if (c->n == c->cap && grow(c) < 0) {
        return -1;
    }
    c->addr[c->n] = address;
    c->kind[c->n] = hash < p->store_threshold ? c->store : c->load;
    c->gap[c->n] = gap;
    c->n++;
    return 0;
}

/* One visit of phase `p`: the body of engine._emit_phase. */
static int
emit_phase(Columns *c, Phase *p, MTState *mt, int64_t quota)
{
    const int64_t iso = c->isolating_gap, burst_gap = c->burst_gap;
    const Py_ssize_t start_n = c->n;
    int64_t carry = 0;

    while (c->n - start_n < quota) {
        double choice = mt_random(mt);
        int64_t block;
        int in_burst;
        if (choice < p->t_s && p->n_s) {
            block = p->s_blocks[p->s_cursor];
            p->s_cursor = (p->s_cursor + 1) % p->n_s;
            in_burst = mt_random(mt) < p->noise;
        }
        else if (choice < p->t_t) {
            if (__builtin_add_overflow(p->transient_base, p->transients,
                                       &block)) {
                return overflow();
            }
            p->transients++;
            in_burst = 0;
        }
        else if (choice < p->t_r && p->random_pool) {
            if (__builtin_add_overflow(p->random_base,
                                       mt_randbelow(mt, p->random_pool),
                                       &block)) {
                return overflow();
            }
            in_burst = !(mt_random(mt) < p->random_isolated);
        }
        else if (choice < p->t_f && p->flip_pool) {
            int64_t spread = p->flip_pool / FLIP_BLOCKS_PER_SET;
            if (spread < 1) {
                spread = 1;
            }
            int64_t lane = p->flip_cursor / spread;
            int64_t offset = p->flip_cursor % spread, stride;
            if (__builtin_mul_overflow(lane, (int64_t)FLIP_LANE_STRIDE,
                                       &stride)
                || __builtin_add_overflow(p->flip_base, offset, &block)
                || __builtin_add_overflow(block, stride, &block)) {
                return overflow();
            }
            p->flip_cursor++;
            if (p->flip_cursor >= p->flip_pool) {
                p->flip_cursor = 0;
                p->flip_lap++;
            }
            in_burst = p->flip_lap % 2 != 0;
        }
        else {
            int64_t size = p->bursts[p->rotation];
            p->rotation = (p->rotation + 1) % p->n_bursts;
            int64_t start;
            if (p->p_random) {
                start = mt_randbelow(mt, p->p_pool);
            }
            else {
                start = p->p_cursor;
                p->p_cursor = (p->p_cursor + size % p->p_pool) % p->p_pool;
            }
            int isolated = mt_random(mt) < p->noise;
            for (int64_t i = 0; i < size; i++) {
                int64_t gap = i ? (isolated ? iso : burst_gap) : iso + carry;
                int64_t offset = (start + i % p->p_pool) % p->p_pool;
                if (__builtin_add_overflow(p->p_base, offset, &block)) {
                    return overflow();
                }
                if (push(c, p, block, gap) < 0) {
                    return -1;
                }
            }
            carry = isolated ? iso : 0;
            continue;
        }
        if (push(c, p, block, iso + carry) < 0) {
            return -1;
        }
        if (in_burst) {
            int64_t first;
            if (__builtin_add_overflow(p->companion_base, p->companions,
                                       &first)
                || first == INT64_MAX) {
                return overflow();
            }
            if (push(c, p, first, burst_gap) < 0
                || push(c, p, first + 1, burst_gap) < 0) {
                return -1;
            }
            p->companions += 2;
        }
        carry = iso;
    }
    return 0;
}

/* A sequence of Python ints as a malloc'd int64 array (NULL + error on
 * failure; an empty sequence yields a non-NULL 1-slot buffer). */
static int64_t *
int64_items(PyObject *obj, const char *what, Py_ssize_t *n_out)
{
    PyObject *seq = PySequence_Fast(obj, what);
    if (!seq) {
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    int64_t *items = (int64_t *)malloc((size_t)(n ? n : 1) * sizeof(int64_t));
    if (!items) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        long long v = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred()) {
            free(items);
            Py_DECREF(seq);
            return NULL;
        }
        items[i] = (int64_t)v;
    }
    Py_DECREF(seq);
    *n_out = n;
    return items;
}

static int
parse_state(PyObject *obj, MTState *state)
{
    PyObject *seq = PySequence_Fast(obj, "state must be a sequence of ints");
    if (!seq) {
        return -1;
    }
    if (PySequence_Fast_GET_SIZE(seq) != MT_N + 1) {
        Py_DECREF(seq);
        PyErr_Format(PyExc_ValueError,
                     "state must hold %d words plus a position", MT_N);
        return -1;
    }
    for (Py_ssize_t i = 0; i <= MT_N; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, i);
        if (!PyLong_Check(item)) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_TypeError, "state entries must be ints");
            return -1;
        }
        unsigned long long v = PyLong_AsUnsignedLongLong(item);
        if (v == (unsigned long long)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (i < MT_N) {
            if (v > 0xffffffffULL) {
                Py_DECREF(seq);
                PyErr_SetString(PyExc_ValueError,
                                "state words must fit 32 bits");
                return -1;
            }
            state->mt[i] = (uint32_t)v;
        }
        else {
            if (v > MT_N) {
                Py_DECREF(seq);
                PyErr_SetString(PyExc_ValueError,
                                "state position out of range");
                return -1;
            }
            state->index = (int)v;
        }
    }
    Py_DECREF(seq);
    return 0;
}

static int
parse_phase(PyObject *item, Phase *p)
{
    PyObject *bursts, *s_blocks;
    /* PyArg_ParseTuple raises SystemError, not TypeError, on a
     * non-tuple; the field layout is _PhaseState.native_params. */
    if (!PyTuple_Check(item)) {
        PyErr_SetString(PyExc_TypeError, "each phase must be a tuple");
        return -1;
    }
    memset(p, 0, sizeof(*p));
    if (!PyArg_ParseTuple(
            item, "LddddddLLLpLLOOLLLLLL:synthesize phase",
            &p->quota, &p->t_s, &p->t_t, &p->t_r, &p->t_f, &p->noise,
            &p->random_isolated, &p->store_threshold, &p->skew_start,
            &p->skew_width, &p->p_random, &p->p_pool, &p->p_base, &bursts,
            &s_blocks, &p->transient_base, &p->random_base,
            &p->random_pool, &p->flip_base, &p->flip_pool,
            &p->companion_base)) {
        return -1;
    }
    if (p->quota < 1) {
        PyErr_SetString(PyExc_ValueError, "phase quotas must be positive");
        return -1;
    }
    if (p->p_pool < 1 || p->skew_width < 0 || p->random_pool < 0
        || p->flip_pool < 0) {
        PyErr_SetString(PyExc_ValueError, "pool sizes out of range");
        return -1;
    }
    if ((p->p_random && p->p_pool > (int64_t)UINT32_MAX)
        || p->random_pool > (int64_t)UINT32_MAX) {
        PyErr_SetString(PyExc_ValueError,
                        "randomly drawn pools must be below 2**32");
        return -1;
    }
    p->bursts = int64_items(bursts, "burst_sizes must be a sequence",
                            &p->n_bursts);
    if (!p->bursts) {
        return -1;
    }
    if (p->n_bursts == 0) {
        PyErr_SetString(PyExc_ValueError, "burst_sizes must not be empty");
        return -1;
    }
    for (Py_ssize_t i = 0; i < p->n_bursts; i++) {
        if (p->bursts[i] < 1) {
            PyErr_SetString(PyExc_ValueError, "burst sizes must be positive");
            return -1;
        }
    }
    p->s_blocks = int64_items(s_blocks, "s_blocks must be a sequence",
                              &p->n_s);
    return p->s_blocks ? 0 : -1;
}

static void
free_phases(Phase *phases, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        free(phases[i].bursts);
        free(phases[i].s_blocks);
    }
    free(phases);
}

PyObject *
tracegen_synthesize(PyObject *self, PyObject *args)
{
    PyObject *state_obj, *phases_obj, *result = NULL;
    long long budget;
    int load, store;
    Columns c;
    MTState mt;
    memset(&c, 0, sizeof(c));
    (void)self;

    if (!PyArg_ParseTuple(args, "OOLLL(LL)(ii):synthesize", &state_obj,
                          &phases_obj, &budget, &c.n_sets, &c.line_bytes,
                          &c.isolating_gap, &c.burst_gap, &load, &store)) {
        return NULL;
    }
    if (budget < 0) {
        PyErr_SetString(PyExc_ValueError, "budget must be non-negative");
        return NULL;
    }
    if (c.isolating_gap < 0 || c.burst_gap < 0
        || c.isolating_gap > INT64_MAX / 2) {
        PyErr_SetString(PyExc_ValueError, "gaps out of range");
        return NULL;
    }
    if (load < -128 || load > 127 || store < -128 || store > 127) {
        PyErr_SetString(PyExc_ValueError, "access kinds must fit int8");
        return NULL;
    }
    c.load = (int8_t)load;
    c.store = (int8_t)store;
    if (parse_state(state_obj, &mt) < 0) {
        return NULL;
    }
    PyObject *seq = PySequence_Fast(phases_obj, "phases must be a sequence");
    if (!seq) {
        return NULL;
    }
    Py_ssize_t n_phases = PySequence_Fast_GET_SIZE(seq);
    if (n_phases == 0) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "phases must not be empty");
        return NULL;
    }
    Phase *phases = (Phase *)calloc((size_t)n_phases, sizeof(Phase));
    if (!phases) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t i = 0; i < n_phases; i++) {
        if (parse_phase(PySequence_Fast_GET_ITEM(seq, i), &phases[i]) < 0) {
            Py_DECREF(seq);
            free_phases(phases, n_phases);
            return NULL;
        }
    }
    Py_DECREF(seq);

    int64_t remaining = budget;
    Py_ssize_t phase_index = 0;
    while (remaining > 0) {
        Phase *p = &phases[phase_index];
        Py_ssize_t before = c.n;
        if (emit_phase(&c, p, &mt, p->quota < remaining ? p->quota
                                                        : remaining) < 0) {
            goto done;
        }
        remaining -= c.n - before;
        phase_index = (phase_index + 1) % n_phases;
    }
    if (c.n == 0 && grow(&c) < 0) {
        goto done;  /* Py_BuildValue maps NULL buffers to None */
    }
    result = Py_BuildValue(
        "(y#y#y#)",
        (const char *)c.addr, c.n * (Py_ssize_t)sizeof(int64_t),
        (const char *)c.kind, c.n,
        (const char *)c.gap, c.n * (Py_ssize_t)sizeof(int64_t));
done:
    free_phases(phases, n_phases);
    free(c.addr);
    free(c.kind);
    free(c.gap);
    return result;
}
