/* Native offline oracle: repro.analysis.oracle's passes over packed
 * trace columns.
 *
 * One call replays a trace through the plain-LRU L1 filter
 * (_l1_filter), estimates each L2-visible access's quantized refetch
 * cost (_estimated_costs), runs the per-set Belady and cost-weighted
 * OPT schedules (_replay_opt), charges each schedule's stall floor
 * (_stall_bound) and counts compulsory and demand accesses.  The
 * Python passes stay as the reference; the contract is an equal
 * OracleReport, floats bit for bit:
 *
 *  - Each L2-visible block gets a dense id in first-access order (the
 *    block -> id Map of common.h), so a fresh id is a first touch and the
 *    next uses come from one backward pass over the id column.
 *  - Victim choice scans the set's ways and keeps Python's tie rules.
 *    A set's resident dict iterates in fill order, and max()/min()
 *    return the first best, so ties (only never-reused blocks tie)
 *    go to the earliest fill.  Belady evicts the farthest next use;
 *    cost-OPT the cheapest quantized refetch, then the farthest use.
 *  - Costs and stall sums evaluate the Python expressions in Python's
 *    order on doubles (setup.py passes -ffp-contract=off).  int / int
 *    true division equals the double division of the operands while
 *    they are below 2**53, so a trace whose instruction count passes
 *    2**53 raises OverflowError and the caller takes the Python passes
 *    (as it does for a cache past GEOMETRY_LIMIT ways).
 *
 * Compiled into the repro._native.replaykernel module (see setup.py),
 * which exports oracle_run as `oracle`.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "common.h"

#define NEVER INT64_MAX
/* Positions stay exact as doubles below this (see above). */
#define POSITION_LIMIT ((int64_t)1 << 53)
/* Per-cache bound on sets x ways, which the replays allocate up front;
 * a larger cache raises OverflowError and takes the Python passes. */
#define GEOMETRY_LIMIT ((int64_t)1 << 22)

typedef struct {
    int64_t n_sets, assoc, mask;
} Geometry;

/* The L2-visible stream (_L2Stream), one entry per L1 miss. */
typedef struct {
    Py_ssize_t n;
    int64_t *block;
    int64_t *id;       /* dense id, in first-access order */
    int64_t *position; /* committed instructions at dispatch */
    int64_t *next_use; /* next stream index of the block, NEVER */
    int8_t *kind;
    int8_t *demand;    /* 0 for wrong-path accesses */
    int8_t *cost_q;    /* _estimated_costs */
    int64_t n_ids;
    int64_t instructions;
    int64_t demands;
    int64_t compulsory;
} Stream;

static void
stream_free(Stream *s)
{
    free(s->block);
    free(s->id);
    free(s->position);
    free(s->next_use);
    free(s->kind);
    free(s->demand);
    free(s->cost_q);
}

static inline int64_t
set_of(const Geometry *g, int64_t block)
{
    return mod_index(block, g->n_sets, g->mask);
}

static int
geometry_ok(Geometry *g, long long n_sets, long long assoc, const char *name)
{
    if (n_sets < 1 || assoc < 1) {
        PyErr_Format(PyExc_ValueError,
                     "oracle: %s needs at least one set and way, got %lld x %lld",
                     name, n_sets, assoc);
        return 0;
    }
    if (n_sets > GEOMETRY_LIMIT || assoc > GEOMETRY_LIMIT / n_sets) {
        PyErr_Format(PyExc_OverflowError,
                     "oracle: %s has more than %lld ways", name,
                     (long long)GEOMETRY_LIMIT);
        return 0;
    }
    g->n_sets = n_sets;
    g->assoc = assoc;
    g->mask = pow2_mask(n_sets);
    return 1;
}

/* A one-dimensional column of `itemsize`-byte items whose struct code
 * is one of `codes`; TypeError otherwise. */
static int
column_ok(const Py_buffer *b, Py_ssize_t itemsize, const char *codes,
          const char *name)
{
    const char *f = b->format ? b->format : "B";
    if (*f == '@' || *f == '=' || *f == '<') {
        f++;
    }
    if (b->ndim != 1 || b->itemsize != itemsize || f[0] == '\0' ||
        f[1] != '\0' || !strchr(codes, f[0])) {
        PyErr_Format(PyExc_TypeError,
                     "oracle: %s must be a flat column of %zd-byte '%s' "
                     "items, got format '%s' with itemsize %zd",
                     name, itemsize, codes, b->format ? b->format : "B",
                     b->itemsize);
        return 0;
    }
    return 1;
}

/* _l1_filter: every record through its plain-LRU L1 (MRU first, no
 * inclusion); the misses are the L2-visible stream. */
static int
l1_filter(Stream *out, const int64_t *addrs, const int8_t *kinds,
          const int64_t *gaps, const uint8_t *wrong, Py_ssize_t n,
          int64_t block_bits, int8_t ifetch, const Geometry *l1i,
          const Geometry *l1d)
{
    int64_t *ways_i = (int64_t *)malloc(
        (size_t)(l1i->n_sets * l1i->assoc) * sizeof(int64_t));
    int64_t *ways_d = (int64_t *)malloc(
        (size_t)(l1d->n_sets * l1d->assoc) * sizeof(int64_t));
    int64_t *fill_i = (int64_t *)calloc((size_t)l1i->n_sets, sizeof(int64_t));
    int64_t *fill_d = (int64_t *)calloc((size_t)l1d->n_sets, sizeof(int64_t));
    int status = -1;
    if (!ways_i || !ways_d || !fill_i || !fill_d) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t position = 0;
    Py_ssize_t m = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t block = addrs[i] >> block_bits;
        int is_wrong = (wrong[i >> 3] >> (i & 7)) & 1;
        if (!is_wrong) {
            if (gaps[i] >= POSITION_LIMIT - 1 - position) {
                PyErr_SetString(PyExc_OverflowError,
                                "oracle: instruction count reaches 2**53");
                goto done;
            }
            position += gaps[i] + 1;
        }
        const Geometry *g = kinds[i] == ifetch ? l1i : l1d;
        int64_t set = set_of(g, block);
        int64_t *ways = (kinds[i] == ifetch ? ways_i : ways_d) +
                        set * g->assoc;
        int64_t *fill = (kinds[i] == ifetch ? fill_i : fill_d) + set;
        int64_t way = 0;
        while (way < *fill && ways[way] != block) {
            way++;
        }
        if (way < *fill) {
            memmove(ways + 1, ways, (size_t)way * sizeof(int64_t));
            ways[0] = block;
            continue;
        }
        if (*fill < g->assoc) {
            *fill += 1;
        }
        memmove(ways + 1, ways, (size_t)(*fill - 1) * sizeof(int64_t));
        ways[0] = block;
        out->block[m] = block;
        out->kind[m] = kinds[i];
        out->demand[m] = (int8_t)!is_wrong;
        out->position[m] = position;
        out->demands += !is_wrong;
        m++;
    }
    out->n = m;
    out->instructions = position;
    status = 0;
done:
    free(ways_i);
    free(ways_d);
    free(fill_i);
    free(fill_d);
    return status;
}

/* Dense ids (first access order), the compulsory count, and next uses
 * from one backward pass. */
static int
number_blocks(Stream *s)
{
    Map ids;
    if (map_init(&ids, 1024) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < s->n; i++) {
        MapSlot *slot = map_get(&ids, s->block[i]);
        if (slot) {
            s->id[i] = slot->a;
            continue;
        }
        if (!map_put(&ids, s->block[i], s->n_ids, 0.0)) {
            map_free(&ids);
            PyErr_NoMemory();
            return -1;
        }
        s->id[i] = s->n_ids++;
        s->compulsory += s->demand[i];
    }
    map_free(&ids);
    int64_t *last = (int64_t *)malloc((size_t)(s->n_ids ? s->n_ids : 1) *
                                      sizeof(int64_t));
    if (!last) {
        PyErr_NoMemory();
        return -1;
    }
    for (int64_t id = 0; id < s->n_ids; id++) {
        last[id] = NEVER;
    }
    for (Py_ssize_t i = s->n - 1; i >= 0; i--) {
        s->next_use[i] = last[s->id[i]];
        last[s->id[i]] = i;
    }
    free(last);
    return 0;
}

/* _estimated_costs: demand accesses whose positions chain within one
 * window share the isolated latency, at most `mshr` ways. */
static void
estimate_costs(Stream *s, int64_t *members, int64_t window, double latency,
               int64_t mshr, double qstep, int64_t max_q)
{
    Py_ssize_t k = 0;
    int64_t cluster_end = 0;
    for (Py_ssize_t i = 0; i <= s->n; i++) {
        int close = i == s->n
            ? k > 0
            : s->demand[i] && k > 0 && s->position[i] - cluster_end >= window;
        if (close) {
            int8_t cost_q = (int8_t)cost_bucket(
                latency / (double)(k < mshr ? k : mshr), qstep, max_q);
            for (Py_ssize_t j = 0; j < k; j++) {
                s->cost_q[members[j]] = cost_q;
            }
            k = 0;
        }
        if (i < s->n && s->demand[i]) {
            members[k++] = i;
            cluster_end = s->position[i];
        }
    }
}

/* _replay_opt: per-set OPT over the stream; fills `misses` with the
 * demand-miss indices and returns their count, -1 when out of memory.
 * With `costed` the victim is the cheapest refetch, else the farthest
 * next use. */
static Py_ssize_t
replay_opt(const Stream *s, const Geometry *l2, int costed, int64_t *misses)
{
    int64_t ways = l2->n_sets * l2->assoc;
    int64_t *way_id = (int64_t *)malloc((size_t)ways * sizeof(int64_t));
    int64_t *way_use = (int64_t *)malloc((size_t)ways * sizeof(int64_t));
    int64_t *way_fill = (int64_t *)malloc((size_t)ways * sizeof(int64_t));
    int8_t *way_cost = (int8_t *)malloc((size_t)ways);
    int64_t *filled = (int64_t *)calloc((size_t)l2->n_sets, sizeof(int64_t));
    int64_t *where = (int64_t *)malloc(
        (size_t)(s->n_ids ? s->n_ids : 1) * sizeof(int64_t));
    Py_ssize_t n_misses = -1;
    if (!way_id || !way_use || !way_fill || !way_cost || !filled || !where) {
        PyErr_NoMemory();
        goto done;
    }
    for (int64_t id = 0; id < s->n_ids; id++) {
        where[id] = -1;
    }
    n_misses = 0;
    for (Py_ssize_t i = 0; i < s->n; i++) {
        int64_t use = s->next_use[i];
        int8_t cost = use == NEVER ? 0 : s->cost_q[use];
        int64_t slot = where[s->id[i]];
        if (slot >= 0) {
            way_use[slot] = use;
            way_cost[slot] = cost;
            continue;
        }
        if (s->demand[i]) {
            misses[n_misses++] = i;
        }
        int64_t set = set_of(l2, s->block[i]);
        int64_t base = set * l2->assoc;
        if (filled[set] < l2->assoc) {
            slot = base + filled[set]++;
        }
        else {
            slot = base;
            for (int64_t w = base + 1; w < base + l2->assoc; w++) {
                int better;
                if (costed && way_cost[w] != way_cost[slot]) {
                    better = way_cost[w] < way_cost[slot];
                }
                else if (way_use[w] != way_use[slot]) {
                    better = way_use[w] > way_use[slot];
                }
                else {
                    better = way_fill[w] < way_fill[slot];
                }
                if (better) {
                    slot = w;
                }
            }
            where[way_id[slot]] = -1;
        }
        way_id[slot] = s->id[i];
        way_use[slot] = use;
        way_cost[slot] = cost;
        way_fill[slot] = i;
        where[s->id[i]] = slot;
    }
done:
    free(way_id);
    free(way_use);
    free(way_fill);
    free(way_cost);
    free(filled);
    free(where);
    return n_misses;
}

/* _stall_bound: chain load/ifetch misses within one window, charge
 * each chain that can fill the window its latency minus the hidden
 * cycles minus its dispatch span, clamped at zero. */
static double
stall_bound(const Stream *s, const int64_t *misses, Py_ssize_t n_misses,
            int8_t store, int64_t window, int64_t width, double latency,
            int64_t *chains)
{
    double hide = (double)window / (double)width;
    double stall = 0.0;
    int64_t first = 0, last = 0;
    int open = 0;
    *chains = 0;
    for (Py_ssize_t j = 0; j <= n_misses; j++) {
        int64_t position = 0;
        if (j < n_misses) {
            if (s->kind[misses[j]] == store) {
                continue;
            }
            position = s->position[misses[j]];
            if (!open) {
                first = last = position;
                open = 1;
                continue;
            }
            if (position - last < window) {
                last = position;
                continue;
            }
        }
        if (open && s->instructions - last >= window) {
            double span = (double)(last - first) / (double)width;
            double charge = latency - hide - span;
            stall += charge > 0.0 ? charge : 0.0;
            *chains += 1;
        }
        first = last = position;
    }
    return stall;
}

PyObject *
oracle_run(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *addrs_o, *kinds_o, *gaps_o, *wrong_o;
    long long block_bits, l1i_sets, l1i_assoc, l1d_sets, l1d_assoc;
    long long l2_sets, l2_assoc, window, width, mshr, max_q;
    double latency, qstep;
    int load, store, ifetch;
    if (!PyArg_ParseTuple(args, "OOOOL(LL)(LL)(LL)LLdLdL(iii):oracle",
                          &addrs_o, &kinds_o, &gaps_o, &wrong_o, &block_bits,
                          &l1i_sets, &l1i_assoc, &l1d_sets, &l1d_assoc,
                          &l2_sets, &l2_assoc, &window, &width, &latency,
                          &mshr, &qstep, &max_q, &load, &store, &ifetch)) {
        return NULL;
    }
    Geometry l1i, l1d, l2;
    if (!geometry_ok(&l1i, l1i_sets, l1i_assoc, "l1i") ||
        !geometry_ok(&l1d, l1d_sets, l1d_assoc, "l1d") ||
        !geometry_ok(&l2, l2_sets, l2_assoc, "l2")) {
        return NULL;
    }
    if (block_bits < 0 || block_bits > 62 || window < 1 || width < 1 ||
        mshr < 1 || !(latency >= 0.0) || !isfinite(latency) ||
        !(qstep > 0.0) || !isfinite(qstep) || max_q < 0 || max_q > 127) {
        PyErr_SetString(PyExc_ValueError,
                        "oracle: block_bits must be in 0..62, window, "
                        "width and mshr positive, latency finite and "
                        "non-negative, qstep positive, max_q in 0..127");
        return NULL;
    }
    if (load < -128 || load > 127 || store < -128 || store > 127 ||
        ifetch < -128 || ifetch > 127) {
        PyErr_SetString(PyExc_ValueError, "oracle: access kinds must fit int8");
        return NULL;
    }

    Py_buffer addr_buf = {0}, kind_buf = {0}, gap_buf = {0}, wrong_buf = {0};
    Stream s;
    int64_t *scratch = NULL;
    PyObject *result = NULL;
    memset(&s, 0, sizeof(s));
    const int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (PyObject_GetBuffer(addrs_o, &addr_buf, flags) < 0) {
        goto done;
    }
    if (PyObject_GetBuffer(kinds_o, &kind_buf, flags) < 0) {
        goto done;
    }
    if (PyObject_GetBuffer(gaps_o, &gap_buf, flags) < 0) {
        goto done;
    }
    if (PyObject_GetBuffer(wrong_o, &wrong_buf, flags) < 0) {
        goto done;
    }
    if (!column_ok(&addr_buf, 8, "ql", "addresses") ||
        !column_ok(&kind_buf, 1, "b", "kinds") ||
        !column_ok(&gap_buf, 8, "ql", "gaps") ||
        !column_ok(&wrong_buf, 1, "B", "the wrong-path bitset")) {
        goto done;
    }
    Py_ssize_t n = addr_buf.shape[0];
    if (kind_buf.shape[0] != n || gap_buf.shape[0] != n) {
        PyErr_SetString(PyExc_ValueError, "oracle: column lengths disagree");
        goto done;
    }
    if (wrong_buf.shape[0] != (n + 7) / 8) {
        PyErr_SetString(PyExc_ValueError,
                        "oracle: wrong-path bitset has the wrong size");
        goto done;
    }
    const int64_t *addrs = (const int64_t *)addr_buf.buf;
    const int64_t *gaps = (const int64_t *)gap_buf.buf;
    const int8_t *kinds = (const int8_t *)kind_buf.buf;
    int64_t sign = 0;
    int bad_kind = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        sign |= addrs[i] | gaps[i];
        bad_kind |= (kinds[i] != load) & (kinds[i] != store) &
                    (kinds[i] != ifetch);
    }
    if (sign < 0 || bad_kind) {
        PyErr_SetString(PyExc_ValueError,
                        "oracle: a record has a negative address or gap, "
                        "or an unknown kind");
        goto done;
    }

    size_t cells = (size_t)(n ? n : 1);
    s.block = (int64_t *)malloc(cells * sizeof(int64_t));
    s.id = (int64_t *)malloc(cells * sizeof(int64_t));
    s.position = (int64_t *)malloc(cells * sizeof(int64_t));
    s.next_use = (int64_t *)malloc(cells * sizeof(int64_t));
    s.kind = (int8_t *)malloc(cells);
    s.demand = (int8_t *)malloc(cells);
    s.cost_q = (int8_t *)calloc(cells, 1);
    scratch = (int64_t *)malloc(cells * sizeof(int64_t));
    if (!s.block || !s.id || !s.position || !s.next_use || !s.kind ||
        !s.demand || !s.cost_q || !scratch) {
        PyErr_NoMemory();
        goto done;
    }
    if (l1_filter(&s, addrs, kinds, gaps, (const uint8_t *)wrong_buf.buf, n,
                  block_bits, (int8_t)ifetch, &l1i, &l1d) < 0 ||
        number_blocks(&s) < 0) {
        goto done;
    }
    estimate_costs(&s, scratch, window, latency, mshr, qstep, max_q);

    Py_ssize_t opt_misses = replay_opt(&s, &l2, 0, scratch);
    if (opt_misses < 0) {
        goto done;
    }
    int64_t opt_chains;
    double opt_stall = stall_bound(&s, scratch, opt_misses, (int8_t)store,
                                   window, width, latency, &opt_chains);
    Py_ssize_t cost_misses = replay_opt(&s, &l2, 1, scratch);
    if (cost_misses < 0) {
        goto done;
    }
    int64_t chains;
    double cost_stall = stall_bound(&s, scratch, cost_misses, (int8_t)store,
                                    window, width, latency, &chains);
    result = Py_BuildValue(
        "{s:L,s:n,s:L,s:L,s:n,s:d,s:n,s:d,s:L}",
        "instructions", (long long)s.instructions,
        "l2_accesses", s.n,
        "l2_demand_accesses", (long long)s.demands,
        "compulsory_misses", (long long)s.compulsory,
        "opt_misses", opt_misses,
        "opt_stall_cycles", opt_stall,
        "cost_opt_misses", cost_misses,
        /* min(opt_stall, cost_stall): the first unless the second is
         * strictly smaller */
        "cost_opt_stall_cycles",
        cost_stall < opt_stall ? cost_stall : opt_stall,
        "miss_clusters", (long long)chains);
done:
    stream_free(&s);
    free(scratch);
    if (addr_buf.obj) {
        PyBuffer_Release(&addr_buf);
    }
    if (kind_buf.obj) {
        PyBuffer_Release(&kind_buf);
    }
    if (gap_buf.obj) {
        PyBuffer_Release(&gap_buf);
    }
    if (wrong_buf.obj) {
        PyBuffer_Release(&wrong_buf);
    }
    return result;
}
