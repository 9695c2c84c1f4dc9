/* Native replay kernel: the simulator's fast path.
 *
 * A hand-written C port of the generic replay loop in
 * repro.sim.simulator (Simulator._replay plus _access_hierarchy and
 * the per-access methods of the caches, MSHR, memory controller and
 * replacement policies), specialised to the machine shapes
 * repro.sim.native admits.  The contract: bit-identical SimResult
 * digests against the generic loop, enforced by the native-vs-generic
 * tests, the golden fingerprints in tests/golden/kernels.json, and
 * `python -m repro.bench --check`.
 *
 * Bit-exactness notes:
 *  - Every float expression keeps the interpreter's evaluation order
 *    and operand types (IEEE doubles throughout; CPython computes
 *    int/int true division and int->float promotion as exact doubles
 *    for magnitudes below 2**53, which all quantities here are).
 *    setup.py compiles with -ffp-contract=off so `a * b + c` never
 *    fuses into one rounding.
 *  - `min(cost // QUANTIZATION_STEP, MAX_COST_Q)` is computed as the
 *    largest bucket k with k * step <= cost (cost_bucket), which is
 *    the interpreter's floor division exactly, since cost >= 0.
 *  - Container pop order is replayed exactly: the MSHR deques are FIFO
 *    rings (with one serializing bus, demand completions are strictly
 *    increasing, so heap order is append order), the store-buffer and
 *    memory heaps hold plain doubles (any valid binary heap pops the
 *    same value sequence), and identity checks on MSHR entries use a
 *    monotone serial number in place of CPython object identity.
 *  - No random numbers are drawn here: rand-dynamic SBAR leader sets
 *    are drawn in Python, one per epoch the trace reaches, and passed
 *    in with the instruction index at which each epoch begins.
 *
 * The kernel consumes PackedTrace columns through the buffer protocol
 * and returns every counter plus the full end-of-run machine state for
 * the Python wrapper (repro.sim.native) to write back into the
 * component objects: scalars and small queues as Python objects, the
 * bulk state (tag arrays, the compulsory-miss set, the delta
 * tracker's last costs, policy side maps) as flat bytes buffers that
 * the wrapper only decodes when something reads them.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* Helpers the replay loop shares with the prefetch path: forced inline
 * so the loop compiles as if they were written out in place. */
#define ALWAYS_INLINE inline __attribute__((always_inline))

/* A set or bank count's mask: n - 1 for a power of two, else -1. */
static int64_t
pow2_mask(int64_t n)
{
    return (n & (n - 1)) ? -1 : n - 1;
}

/* x % n for x >= 0, where `mask` is pow2_mask(n): the common shapes
 * take a set or bank index without a 64-bit divide. */
static ALWAYS_INLINE int64_t
mod_index(int64_t x, int64_t n, int64_t mask)
{
    return mask >= 0 ? x & mask : x % n;
}

/* ---------------------------------------------------------------- */
/* Growable min-heap of doubles (heapq semantics over plain values)  */
/* ---------------------------------------------------------------- */

typedef struct {
    double *a;
    Py_ssize_t n, cap;
} DHeap;

static int
dheap_reserve(DHeap *h, Py_ssize_t want)
{
    if (want <= h->cap) {
        return 0;
    }
    Py_ssize_t cap = h->cap ? h->cap * 2 : 64;
    while (cap < want) {
        cap *= 2;
    }
    double *a = (double *)realloc(h->a, (size_t)cap * sizeof(double));
    if (!a) {
        return -1;
    }
    h->a = a;
    h->cap = cap;
    return 0;
}

static int
dheap_push(DHeap *h, double v)
{
    if (dheap_reserve(h, h->n + 1) < 0) {
        return -1;
    }
    Py_ssize_t i = h->n++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (h->a[parent] <= v) {
            break;
        }
        h->a[i] = h->a[parent];
        i = parent;
    }
    h->a[i] = v;
    return 0;
}

static double
dheap_pop(DHeap *h)
{
    double top = h->a[0];
    double last = h->a[--h->n];
    Py_ssize_t i = 0, n = h->n;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n) {
            break;
        }
        if (child + 1 < n && h->a[child + 1] < h->a[child]) {
            child += 1;
        }
        if (h->a[child] >= last) {
            break;
        }
        h->a[i] = h->a[child];
        i = child;
    }
    if (n) {
        h->a[i] = last;
    }
    return top;
}

/* ---------------------------------------------------------------- */
/* FIFO rings                                                        */
/* ---------------------------------------------------------------- */

/* A ring's capacity is 0 or a power of two (64, then doubling), so an
 * index wraps with `& (cap - 1)`. */

typedef struct {
    double *a;
    Py_ssize_t head, n, cap;
} DRing;

static ALWAYS_INLINE int
dring_append(DRing *r, double v)
{
    if (r->n == r->cap) {
        Py_ssize_t cap = r->cap ? r->cap * 2 : 64;
        double *a = (double *)malloc((size_t)cap * sizeof(double));
        if (!a) {
            return -1;
        }
        for (Py_ssize_t i = 0; i < r->n; i++) {
            a[i] = r->a[(r->head + i) & (r->cap - 1)];
        }
        free(r->a);
        r->a = a;
        r->cap = cap;
        r->head = 0;
    }
    r->a[(r->head + r->n) & (r->cap - 1)] = v;
    r->n += 1;
    return 0;
}

static double
dring_popleft(DRing *r)
{
    double v = r->a[r->head];
    r->head = (r->head + 1) & (r->cap - 1);
    r->n -= 1;
    return v;
}

#define DRING_FRONT(r) ((r)->a[(r)->head])

typedef struct {
    int64_t index;
    double frontier;
} WinEntry;

typedef struct {
    WinEntry *a;
    Py_ssize_t head, n, cap;
} WRing;

static int
wring_append(WRing *r, int64_t index, double frontier)
{
    if (r->n == r->cap) {
        Py_ssize_t cap = r->cap ? r->cap * 2 : 64;
        WinEntry *a = (WinEntry *)malloc((size_t)cap * sizeof(WinEntry));
        if (!a) {
            return -1;
        }
        for (Py_ssize_t i = 0; i < r->n; i++) {
            a[i] = r->a[(r->head + i) & (r->cap - 1)];
        }
        free(r->a);
        r->a = a;
        r->cap = cap;
        r->head = 0;
    }
    WinEntry *slot = &r->a[(r->head + r->n) & (r->cap - 1)];
    slot->index = index;
    slot->frontier = frontier;
    r->n += 1;
    return 0;
}

static WinEntry
wring_popleft(WRing *r)
{
    WinEntry v = r->a[r->head];
    r->head = (r->head + 1) & (r->cap - 1);
    r->n -= 1;
    return v;
}

#define WRING_FRONT(r) ((r)->a[(r)->head])

/* MSHR entry ring: the demand heap of MSHRFile flattened into a FIFO
 * (see the header).  `serial` stands in for CPython object identity;
 * the tag reference becomes (set_index, fill_seq) so the cost sink can
 * find the tag by scan, and the block travels as its dense id (see
 * Ids) so a completion needs no hash probe. */

typedef struct {
    double complete;
    double acc_start;
    int64_t serial;
    int64_t fill_seq;
    int32_t set_index;
    int32_t id;    /* the block's dense id */
    int32_t phase; /* phase that issued the miss, -1 = none */
    /* deferred update: 0 none, 1 sbar decrement, 2 cbs, 3 tournament */
    uint8_t pend_kind;
    int8_t pend_psel_op; /* cbs: 0 none, 1 increment, 2 decrement */
    int32_t pend_idx;      /* cbs PSEL index, or tournament candidate */
    int32_t pend_fill_set; /* cbs ATD-LIN fill to patch, -1 = none */
    int64_t pend_fill_seq;
} MEntry;

typedef struct {
    MEntry *a;
    Py_ssize_t head, n, cap;
} MRing;

static int
mring_append(MRing *r, MEntry v)
{
    if (r->n == r->cap) {
        Py_ssize_t cap = r->cap ? r->cap * 2 : 64;
        MEntry *a = (MEntry *)malloc((size_t)cap * sizeof(MEntry));
        if (!a) {
            return -1;
        }
        for (Py_ssize_t i = 0; i < r->n; i++) {
            a[i] = r->a[(r->head + i) & (r->cap - 1)];
        }
        free(r->a);
        r->a = a;
        r->cap = cap;
        r->head = 0;
    }
    r->a[(r->head + r->n) & (r->cap - 1)] = v;
    r->n += 1;
    return 0;
}

static MEntry
mring_popleft(MRing *r)
{
    MEntry v = r->a[r->head];
    r->head = (r->head + 1) & (r->cap - 1);
    r->n -= 1;
    return v;
}

#define MRING_FRONT(r) ((r)->a[(r)->head])

/* ---------------------------------------------------------------- */
/* Open-addressing hash map: int64 key -> (int64 a, double b)        */
/* ---------------------------------------------------------------- */

#define MAP_EMPTY INT64_MIN

typedef struct {
    int64_t key;
    int64_t a;
    double b;
} MapSlot;

typedef struct {
    MapSlot *slots;
    size_t cap; /* power of two */
    size_t n;
} Map;

static uint64_t
hash64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

static int
map_init(Map *m, size_t cap)
{
    size_t c = 16;
    while (c < cap) {
        c *= 2;
    }
    m->slots = (MapSlot *)malloc(c * sizeof(MapSlot));
    if (!m->slots) {
        return -1;
    }
    for (size_t i = 0; i < c; i++) {
        m->slots[i].key = MAP_EMPTY;
    }
    m->cap = c;
    m->n = 0;
    return 0;
}

static MapSlot *
map_get(Map *m, int64_t key)
{
    size_t mask = m->cap - 1;
    size_t i = (size_t)hash64((uint64_t)key) & mask;
    for (;;) {
        MapSlot *s = &m->slots[i];
        if (s->key == key) {
            return s;
        }
        if (s->key == MAP_EMPTY) {
            return NULL;
        }
        i = (i + 1) & mask;
    }
}

static int map_grow(Map *m);

/* Insert or update; returns the slot, NULL on allocation failure. */
static MapSlot *
map_put(Map *m, int64_t key, int64_t a, double b)
{
    if ((m->n + 1) * 10 >= m->cap * 7) {
        if (map_grow(m) < 0) {
            return NULL;
        }
    }
    size_t mask = m->cap - 1;
    size_t i = (size_t)hash64((uint64_t)key) & mask;
    for (;;) {
        MapSlot *s = &m->slots[i];
        if (s->key == key) {
            s->a = a;
            s->b = b;
            return s;
        }
        if (s->key == MAP_EMPTY) {
            s->key = key;
            s->a = a;
            s->b = b;
            m->n += 1;
            return s;
        }
        i = (i + 1) & mask;
    }
}

static int
map_grow(Map *m)
{
    size_t old_cap = m->cap;
    MapSlot *old = m->slots;
    size_t cap = old_cap * 2;
    MapSlot *slots = (MapSlot *)malloc(cap * sizeof(MapSlot));
    if (!slots) {
        return -1;
    }
    for (size_t i = 0; i < cap; i++) {
        slots[i].key = MAP_EMPTY;
    }
    size_t mask = cap - 1;
    for (size_t i = 0; i < old_cap; i++) {
        if (old[i].key == MAP_EMPTY) {
            continue;
        }
        size_t j = (size_t)hash64((uint64_t)old[i].key) & mask;
        while (slots[j].key != MAP_EMPTY) {
            j = (j + 1) & mask;
        }
        slots[j] = old[i];
    }
    free(old);
    m->slots = slots;
    m->cap = cap;
    return 0;
}

static void
map_free(Map *m)
{
    free(m->slots);
    m->slots = NULL;
    m->cap = m->n = 0;
}

/* ---------------------------------------------------------------- */
/* Block -> dense id directory                                       */
/* ---------------------------------------------------------------- */

/* Every block that misses in the L2 gets the next dense id, in
 * first-miss order, so handing out a new id *is* the compulsory miss
 * (SetAssociativeCache._seen).  Per id the kernel keeps the block, its
 * last serviced cost (DeltaTracker._last_cost) and its in-flight fill
 * (MSHRFile._in_flight): an L2 miss looks the block up once, an L2 hit
 * reads the id from its way, and an MSHR completion carries the id and
 * looks up nothing.  Without a prefetcher every first miss allocates a
 * demand fill and the drain services them all, so at the end every id
 * has a cost, and the insertion orders of _seen and _last_cost are
 * both id order.  A prefetch fill can be a block's first miss and
 * never gets a cost, so then Sim.cost_order keeps the _last_cost
 * order.
 *
 * The block -> id map is a page directory.  Blocks fall into pages of
 * IDS_PAGE blocks, and `pages` maps a page number to its entry (`a`):
 *  - a dense page's leaf, IDS_PAGE ids by offset (-1 where the block
 *    has none), as a pointer: malloc alignment keeps its low bit 0;
 *  - a sparse page's chain of ids, linked through `next`, as
 *    (count << 33) | (the latest id << 1) | 1.
 * A page starts sparse, so a page that misses once costs one directory
 * slot, and turns dense when a block past the IDS_CHAIN-th misses, so
 * a leaf always serves more than IDS_CHAIN blocks.  Per distinct block
 * that bounds memory to ~100 bytes (a 24-byte slot per page at 70%
 * load, a 1 KB leaf shared by at least 17 blocks, 36 bytes of per-id
 * arrays) whatever the addresses.  The last dense page's leaf is
 * cached, so a run of misses within one page skips the probe. */

#define IDS_PAGE_BITS 8
#define IDS_PAGE ((int64_t)1 << IDS_PAGE_BITS)
#define IDS_CHAIN 16
#define IDS_SPARSE(a) ((a) & 1)

typedef struct {
    Map pages;            /* page -> entry (see above) */
    int64_t last_page;    /* the cached dense page, -1 = none */
    int32_t *last_leaf;
    int32_t n, cap;       /* ids handed out, per-id array capacity */
    int64_t *block;       /* id -> block */
    int32_t *next;        /* id -> previous id of its sparse page, -1 */
    double *cost;         /* id -> last serviced cost, NaN = none yet */
    int64_t *fill_serial; /* id -> in-flight fill's serial, -1 = none */
    double *fill_done;    /* id -> that fill's completion */
    int64_t in_flight;    /* ids with a fill in flight */
} Ids;

static int
ids_init(Ids *t)
{
    t->last_page = -1;
    return map_init(&t->pages, 16);
}

static int
ids_grow_arrays(Ids *t)
{
    int32_t cap = t->cap ? t->cap * 2 : 1024;
    int64_t *block = (int64_t *)realloc(t->block, (size_t)cap * 8);
    if (block) {
        t->block = block;
    }
    int32_t *next = (int32_t *)realloc(t->next, (size_t)cap * 4);
    if (next) {
        t->next = next;
    }
    double *cost = (double *)realloc(t->cost, (size_t)cap * 8);
    if (cost) {
        t->cost = cost;
    }
    int64_t *serial = (int64_t *)realloc(t->fill_serial, (size_t)cap * 8);
    if (serial) {
        t->fill_serial = serial;
    }
    double *done = (double *)realloc(t->fill_done, (size_t)cap * 8);
    if (done) {
        t->fill_done = done;
    }
    if (!block || !next || !cost || !serial || !done) {
        return -1;
    }
    t->cap = cap;
    return 0;
}

/* The next id, for `block`; -1 when out of memory. */
static int32_t
ids_new(Ids *t, int64_t block)
{
    if (t->n == t->cap && ids_grow_arrays(t) < 0) {
        return -1;
    }
    int32_t id = t->n++;
    t->block[id] = block;
    t->next[id] = -1;
    t->cost[id] = NAN;
    t->fill_serial[id] = -1;
    return id;
}

/* The sparse side of ids_get: the page of `block` has no entry yet
 * (slot NULL) or a sparse one.  Returns the block's id, or -1 when it
 * has none; with `fresh` set, a block without one gets the next id
 * (and *fresh = 1), and -1 means out of memory. */
static int32_t __attribute__((noinline))
ids_sparse_lookup(Ids *t, int64_t block, MapSlot *slot, int *fresh)
{
    int64_t page = block >> IDS_PAGE_BITS;
    int64_t count = 0;
    int32_t head = -1;
    if (slot) {
        count = slot->a >> 33;
        head = (int32_t)(slot->a >> 1);
        for (int32_t id = head; id >= 0; id = t->next[id]) {
            if (t->block[id] == block) {
                return id;
            }
        }
    }
    if (!fresh) {
        return -1;
    }
    int32_t id = ids_new(t, block);
    if (id < 0) {
        return -1;
    }
    *fresh = 1;
    if (count < IDS_CHAIN) {
        t->next[id] = head;
        if (slot) {
            slot->a = ((count + 1) << 33) | ((int64_t)id << 1) | 1;
        }
        else if (!map_put(&t->pages, page, ((int64_t)1 << 33) |
                                                ((int64_t)id << 1) | 1,
                           0.0)) {
            return -1;
        }
        return id;
    }
    /* the page turns dense, its chain and the new id into a leaf */
    int32_t *leaf = (int32_t *)malloc((size_t)IDS_PAGE * sizeof(int32_t));
    if (!leaf) {
        return -1;
    }
    memset(leaf, 0xff, (size_t)IDS_PAGE * sizeof(int32_t));
    leaf[block & (IDS_PAGE - 1)] = id;
    for (int32_t old = head; old >= 0; old = t->next[old]) {
        leaf[t->block[old] & (IDS_PAGE - 1)] = old;
    }
    slot->a = (int64_t)(intptr_t)leaf;
    t->last_page = page;
    t->last_leaf = leaf;
    return id;
}

/* The block's id.  With `fresh` set (to 0 by the caller), a first miss
 * hands out the next id and sets *fresh, and -1 means out of memory;
 * without it, -1 means the block never missed. */
static ALWAYS_INLINE int32_t
ids_get(Ids *t, int64_t block, int *fresh)
{
    int64_t page = block >> IDS_PAGE_BITS;
    int32_t *leaf = t->last_leaf;
    if (page != t->last_page) {
        MapSlot *slot = map_get(&t->pages, page);
        if (!slot || IDS_SPARSE(slot->a)) {
            return ids_sparse_lookup(t, block, slot, fresh);
        }
        leaf = (int32_t *)(intptr_t)slot->a;
        t->last_page = page;
        t->last_leaf = leaf;
    }
    int32_t *at = &leaf[block & (IDS_PAGE - 1)];
    if (*at < 0 && fresh) {
        *at = ids_new(t, block);
        *fresh = 1;
    }
    return *at;
}

/* The id's in-flight fill has landed (or a newer probe retired it). */
static inline void
ids_land(Ids *t, int32_t id)
{
    t->fill_serial[id] = -1;
    t->in_flight -= 1;
}

static void
ids_free(Ids *t)
{
    for (size_t i = 0; i < t->pages.cap; i++) {
        MapSlot *slot = &t->pages.slots[i];
        if (slot->key != MAP_EMPTY && !IDS_SPARSE(slot->a)) {
            free((void *)(intptr_t)slot->a);
        }
    }
    map_free(&t->pages);
    free(t->block);
    free(t->next);
    free(t->cost);
    free(t->fill_serial);
    free(t->fill_done);
    memset(t, 0, sizeof(*t));
}

/* ---------------------------------------------------------------- */
/* Set-associative tag arrays (CacheSet.ways, MRU first)             */
/* ---------------------------------------------------------------- */

typedef struct {
    int64_t block;
    int64_t fill_seq;
    int64_t next_use;
    int64_t cost_q;
    uint8_t dirty;
    int32_t id; /* L2 ways: the block's dense id (see Ids) */
} Way;

/* Fields per way in the flat end-state dump (see emit_tags). */
#define WAY_FIELDS 5

typedef struct {
    Way *pool;     /* n_sets * assoc, set i at pool + i * assoc */
    int32_t *len;  /* occupancy per set */
    int64_t n_sets;
    int64_t set_mask; /* pow2_mask(n_sets) */
    int64_t assoc;
} Tags;

static int
tags_init(Tags *t, int64_t n_sets, int64_t assoc)
{
    t->pool = (Way *)calloc((size_t)(n_sets * assoc), sizeof(Way));
    t->len = (int32_t *)calloc((size_t)n_sets, sizeof(int32_t));
    t->n_sets = n_sets;
    t->set_mask = pow2_mask(n_sets);
    t->assoc = assoc;
    return (t->pool && t->len) ? 0 : -1;
}

/* The set of `block` (>= 0). */
static ALWAYS_INLINE int64_t
tags_set_of(const Tags *t, int64_t block)
{
    return mod_index(block, t->n_sets, t->set_mask);
}

static void
tags_free(Tags *t)
{
    free(t->pool);
    free(t->len);
    t->pool = NULL;
    t->len = NULL;
}

#define TAGS_SET(t, s) ((t)->pool + (s) * (t)->assoc)

static inline int
tags_find(const Way *w, int32_t len, int64_t block)
{
    for (int32_t i = 0; i < len; i++) {
        if (w[i].block == block) {
            return i;
        }
    }
    return -1;
}

/* Move position `pos` to MRU (ways.insert(0, ways.pop(pos))). */
static inline void
tags_touch(Way *w, int32_t pos)
{
    if (pos == 0) {
        return;
    }
    Way tmp = w[pos];
    memmove(w + 1, w, (size_t)pos * sizeof(Way));
    w[0] = tmp;
}

static inline void
tags_insert_mru(Way *w, int32_t *len, Way v)
{
    memmove(w + 1, w, (size_t)(*len) * sizeof(Way));
    w[0] = v;
    *len += 1;
}

static inline Way
tags_evict(Way *w, int32_t *len, int32_t pos)
{
    Way v = w[pos];
    memmove(w + pos, w + pos + 1, (size_t)(*len - pos - 1) * sizeof(Way));
    *len -= 1;
    return v;
}

/* CacheSet.insert_at: positions at or past the fill level append. */
static inline void
tags_insert_at(Way *w, int32_t *len, int32_t pos, Way v)
{
    if (pos > *len) {
        pos = *len;
    }
    memmove(w + pos + 1, w + pos, (size_t)(*len - pos) * sizeof(Way));
    w[pos] = v;
    *len += 1;
}

/* ---------------------------------------------------------------- */
/* EHC per-block interval rings (deque(maxlen=horizon) semantics)    */
/* ---------------------------------------------------------------- */

typedef struct {
    int64_t *vals; /* cap * horizon */
    int32_t *head;
    int32_t *cnt;
    Py_ssize_t n, cap;
    int64_t horizon;
} IvPool;

static int
ivpool_init(IvPool *p, int64_t horizon)
{
    memset(p, 0, sizeof(*p));
    p->horizon = horizon > 0 ? horizon : 1;
    return 0;
}

static Py_ssize_t
ivpool_new(IvPool *p)
{
    if (p->n == p->cap) {
        Py_ssize_t cap = p->cap ? p->cap * 2 : 256;
        int64_t *vals = (int64_t *)realloc(
            p->vals, (size_t)(cap * p->horizon) * sizeof(int64_t));
        int32_t *head = (int32_t *)realloc(
            p->head, (size_t)cap * sizeof(int32_t));
        int32_t *cnt = (int32_t *)realloc(
            p->cnt, (size_t)cap * sizeof(int32_t));
        if (vals) {
            p->vals = vals;
        }
        if (head) {
            p->head = head;
        }
        if (cnt) {
            p->cnt = cnt;
        }
        if (!vals || !head || !cnt) {
            return -1;
        }
        p->cap = cap;
    }
    Py_ssize_t idx = p->n++;
    p->head[idx] = 0;
    p->cnt[idx] = 0;
    return idx;
}

static void
ivpool_append(IvPool *p, Py_ssize_t idx, int64_t v)
{
    int64_t h = p->horizon;
    int64_t *ring = p->vals + idx * h;
    if (p->cnt[idx] == (int32_t)h) {
        ring[p->head[idx]] = v;
        p->head[idx] = (int32_t)((p->head[idx] + 1) % h);
    }
    else {
        ring[(p->head[idx] + p->cnt[idx]) % h] = v;
        p->cnt[idx] += 1;
    }
}

static int64_t
ivpool_mean_floor(const IvPool *p, Py_ssize_t idx)
{
    int64_t h = p->horizon;
    const int64_t *ring = p->vals + idx * h;
    int64_t sum = 0;
    int32_t cnt = p->cnt[idx];
    for (int32_t i = 0; i < cnt; i++) {
        sum += ring[(p->head[idx] + i) % h];
    }
    /* reuse intervals are positive, so C division == Python floor */
    return sum / cnt;
}

static void
ivpool_free(IvPool *p)
{
    free(p->vals);
    free(p->head);
    free(p->cnt);
    memset(p, 0, sizeof(*p));
}

/* ---------------------------------------------------------------- */
/* Stride prefetcher region table (cpu.prefetch.StridePrefetcher)   */
/* ---------------------------------------------------------------- */

/* At most n_entries regions, each (last block, stride, 2-bit
 * confidence), replaced FIFO.  Rows live in a ring, oldest at `head`,
 * so a region keeps its row while resident and the ring order is the
 * order of StridePrefetcher._order (and of its _table dict).  `slots`
 * hashes region -> row by linear probing, with backward-shift deletion
 * for evictions.  The ring holds min(n_entries, records) rows: each
 * demand miss installs at most one region, so a shorter trace never
 * fills a larger table. */

typedef struct {
    int on;
    int64_t n_entries, region_blocks, degree, threshold;
    int64_t predictions, trainings, issued, suppressed;
    int64_t *region, *last, *stride, *conf; /* per row */
    int32_t head, n, cap;
    int32_t *slots; /* row per hash slot, -1 = empty */
    size_t mask;
    Map issue; /* block id -> issue time of its latest prefetch (b) */
} Pf;

static int
pf_init(Pf *pf, Py_ssize_t records)
{
    int64_t cap = pf->n_entries < records ? pf->n_entries : records;
    if (cap < 1) {
        cap = 1;
    }
    if (cap > INT32_MAX / 2) {
        return -1;
    }
    size_t n_slots = 16;
    while (n_slots < (size_t)cap * 2) {
        n_slots *= 2;
    }
    pf->cap = (int32_t)cap;
    pf->region = (int64_t *)malloc((size_t)cap * 4 * sizeof(int64_t));
    pf->slots = (int32_t *)malloc(n_slots * sizeof(int32_t));
    if (!pf->region || !pf->slots) {
        return -1;
    }
    pf->last = pf->region + cap;
    pf->stride = pf->last + cap;
    pf->conf = pf->stride + cap;
    for (size_t i = 0; i < n_slots; i++) {
        pf->slots[i] = -1;
    }
    pf->mask = n_slots - 1;
    return map_init(&pf->issue, 1024);
}

static void
pf_free(Pf *pf)
{
    free(pf->region);
    free(pf->slots);
    pf->region = NULL;
    pf->slots = NULL;
    map_free(&pf->issue);
}

#define PF_HOME(pf, key) ((size_t)hash64((uint64_t)(key)) & (pf)->mask)

/* The row holding `region`, or -1. */
static int32_t
pf_find(const Pf *pf, int64_t region)
{
    for (size_t i = PF_HOME(pf, region);; i = (i + 1) & pf->mask) {
        int32_t row = pf->slots[i];
        if (row < 0 || pf->region[row] == region) {
            return row;
        }
    }
}

/* Drop `row` from the hash, shifting later probes back into the hole. */
static void
pf_unhash(Pf *pf, int32_t row)
{
    size_t hole = PF_HOME(pf, pf->region[row]);
    while (pf->slots[hole] != row) {
        hole = (hole + 1) & pf->mask;
    }
    size_t j = hole;
    for (;;) {
        j = (j + 1) & pf->mask;
        int32_t moved = pf->slots[j];
        if (moved < 0) {
            break;
        }
        size_t home = PF_HOME(pf, pf->region[moved]);
        /* entries whose home lies cyclically in (hole, j] stay put */
        int stays = hole <= j ? (hole < home && home <= j)
                              : (hole < home || home <= j);
        if (!stays) {
            pf->slots[hole] = moved;
            hole = j;
        }
    }
    pf->slots[hole] = -1;
}

/* StridePrefetcher._install of a region not in the table. */
static void
pf_install(Pf *pf, int64_t region, int64_t block)
{
    if (pf->n >= pf->n_entries) {
        pf_unhash(pf, pf->head);
        pf->head = (pf->head + 1) % pf->cap;
        pf->n -= 1;
    }
    int32_t row = (pf->head + pf->n) % pf->cap;
    pf->n += 1;
    pf->region[row] = region;
    pf->last[row] = block;
    pf->stride[row] = 0;
    pf->conf[row] = 0;
    size_t i = PF_HOME(pf, region);
    while (pf->slots[i] >= 0) {
        i = (i + 1) & pf->mask;
    }
    pf->slots[i] = row;
}

/* StridePrefetcher.observe: train on one demand miss.  Returns the
 * stride to predict along, or 0 when the region is not confident. */
static int64_t
pf_observe(Pf *pf, int64_t block)
{
    pf->trainings += 1;
    /* blocks are non-negative, so C division floors */
    int64_t region = block / pf->region_blocks;
    int32_t row = pf_find(pf, region);
    if (row < 0) {
        pf_install(pf, region, block);
        return 0;
    }
    int64_t new_stride = block - pf->last[row];
    if (new_stride == 0) {
        return 0;
    }
    int64_t stride = pf->stride[row];
    int64_t conf = pf->conf[row];
    if (new_stride == stride) {
        conf = conf + 1 < 3 ? conf + 1 : 3;
    }
    else {
        conf = conf - 1 > 0 ? conf - 1 : 0;
        if (conf == 0) {
            stride = new_stride;
        }
    }
    pf->last[row] = block;
    pf->stride[row] = stride;
    pf->conf[row] = conf;
    return conf >= pf->threshold ? stride : 0;
}

/* ---------------------------------------------------------------- */
/* Kernel state                                                      */
/* ---------------------------------------------------------------- */

enum {
    POL_LRU = 0, POL_LIN = 1, POL_EHC = 2, POL_AWRP = 3,
    POL_LIP = 4, POL_BIP = 5, POL_PLRU = 6, POL_COST_PLRU = 7,
};
enum {
    CTRL_NONE = 0, CTRL_SBAR = 1, CTRL_CBS = 2, CTRL_DIP = 3,
    CTRL_TOURNAMENT = 4,
};

/* One replacement policy instance.  A fixed policy is pols[0]; SBAR
 * and CBS hold (LIN, LRU), DIP (LRU, BIP), a tournament its candidates
 * in order.  BIP's fill counter is per instance, as in Python. */
typedef struct {
    int64_t kind;
    int64_t lam;                   /* LIN */
    int64_t period, fills;         /* BIP */
    int64_t threshold, max_rejects; /* cost-PLRU */
} Pol;

/* One Figure 11 phase sample (PhaseSample). */
typedef struct {
    int64_t start_instr, end_instr;
    double start_cycle, end_cycle;
    int64_t misses, cost_q_sum, cost_count;
} Phase;

/* Most MSHR occupancy bucket bounds a run may pass (occ_bounds). */
#define MAX_OCC_BOUNDS 16

typedef struct {
    /* trace */
    const int64_t *addrs;
    const int8_t *kinds;
    const int64_t *gaps;
    Py_ssize_t n;
    int64_t block_bits;
    int64_t ifetch_kind, store_kind;

    /* window */
    int64_t win_width, win_size;
    int64_t win_index;
    double win_time, retire_cummax, final_completion, stall_cycles;
    int64_t stall_events, long_stalls;
    double long_stall_threshold;
    WRing wp;

    /* store buffer */
    int64_t sb_capacity, sb_full_stalls;
    DHeap sb;

    /* caches */
    Tags l1d, l1i, l2;
    double l1d_latency, l1i_latency, l2_latency;
    int64_t l1d_seq, l1d_accesses, l1d_hits, l1d_misses, l1d_writebacks;
    int64_t l1i_seq, l1i_accesses, l1i_hits, l1i_misses, l1i_writebacks;
    int64_t l2_seq, l2_accesses, l2_hits, l2_misses, l2_writebacks;
    int64_t l1d_evictions, l1i_evictions, l2_evictions;
    int64_t l2_compulsory;
    int track_seen;
    Ids ids;
    int64_t demand_ctr, compulsory_ctr;

    /* mshr */
    int64_t m_entries, n_adders;
    double m_now, m_acc;
    int64_t m_live, m_allocations, m_merges, m_full_stalls, m_peak;
    /* allocations by occupancy, bucketed by inclusive upper bounds
     * (MSHRFile.occupancy_counts); the last bucket is the overflow */
    int64_t occ_bounds[MAX_OCC_BOUNDS], occ_counts[MAX_OCC_BOUNDS + 1];
    Py_ssize_t n_occ_bounds;
    MRing md;
    DRing occ;
    int64_t m_serial;

    /* memory */
    int64_t memory_max;
    int64_t mem_requests, mem_writebacks, mem_queueing, mem_peak;
    DHeap mif;
    double bus_occupancy, bus_transfer_delay, bus_free;
    int64_t bus_contended, bus_transfers;
    int64_t n_banks, bank_mask;
    double bank_latency;
    double *bank_free;
    int64_t bank_conflicts, bank_accesses;

    /* cost + delta */
    double qstep;
    int64_t max_q;
    int64_t dist_counts[64];
    int64_t dist_total;
    double dist_cost_sum;
    int64_t delta_count;
    double delta_sum;
    int64_t delta_below, delta_mid, delta_high;

    /* policies */
    Pol *pols;
    Py_ssize_t n_pols;
    uint8_t *plru_bits; /* tree-PLRU: assoc - 1 direction bits per set */
    int64_t ehc_horizon, ehc_pending, never;
    Map ehc_last;      /* block -> last seq (a) */
    Map ehc_intervals; /* block -> ivpool index (a) */
    IvPool ehc_pool;
    double awrp_weight;
    int64_t awrp_fills;
    Map awrp_counts; /* block -> count (a) */

    /* controller */
    int64_t controller_kind;
    /* per-set role, 1 byte per l2 set: sbar 1 = leader; dip 1 = LRU
     * leader, 2 = BIP leader; tournament owner + 1; 0 = follower */
    const uint8_t *roles;
    /* rand-dynamic sbar: leader maps of the epochs the trace reaches,
     * entered at the given instruction indices */
    int64_t *epoch_starts;
    const uint8_t **epoch_roles;
    Py_ssize_t n_epochs, next_epoch;
    int64_t atd_assoc;
    Tags atd_lru, atd_lin; /* sbar uses atd_lru only */
    int64_t atd_seq, atd_accesses, atd_hits, atd_misses;
    int64_t atd2_seq, atd2_accesses, atd2_hits, atd2_misses;
    int cbs_local;
    Py_ssize_t n_psels;
    int64_t *psel_val, *psel_incs, *psel_decs;
    int64_t *psel_inc_calls, *psel_dec_calls; /* calls, zero amounts too */
    int64_t psel_max, psel_msb;
    int64_t deferred, follower_lin, follower_lru;
    double *t_scores, *t_accesses; /* tournament, one per candidate */
    int64_t *t_charges;            /* serviced leader misses charged */
    double t_decay;

    /* phases */
    int64_t phase_interval; /* 0 = no phase samples */
    Phase *phases;
    Py_ssize_t n_phases, phases_cap;

    /* prefetcher; with one attached, first costs are not in id order,
     * so cost_order records it (DeltaTracker._last_cost order) */
    Pf pf;
    int32_t *cost_order;
    Py_ssize_t n_cost_order, cost_order_cap;

    int oom;              /* stops the loop: out of memory, or ... */
    const char *overflow; /* ... a value past int64, named here */
} Sim;

/* ---------------------------------------------------------------- */
/* Loop bodies                                                       */
/* ---------------------------------------------------------------- */

/* LINPolicy.choose_victim: the lowest recency + lam * cost_q, the LRU
 * end winning ties.  The scan selects without branching: where the
 * victim sits depends on the data, so a branch on it mispredicts. */
static int64_t
lin_choose(const Way *w, int32_t len, int64_t assoc, int64_t lam)
{
    int64_t mru = assoc - 1;
    int64_t best_pos = 0;
    int64_t best = mru + lam * w[0].cost_q;
    for (int32_t pos = 1; pos < len; pos++) {
        int64_t score = mru - pos + lam * w[pos].cost_q;
        int64_t take = -(int64_t)(score <= best);
        best = (score & take) | (best & ~take);
        best_pos = (pos & take) | (best_pos & ~take);
    }
    return best_pos;
}

static int64_t
ehc_choose(const Way *w, int32_t len)
{
    int64_t farthest_pos = 0;
    int64_t farthest = -1;
    for (int32_t pos = 0; pos < len; pos++) {
        if (w[pos].next_use > farthest) {
            farthest = w[pos].next_use;
            farthest_pos = pos;
        }
    }
    return farthest_pos;
}

static int64_t
awrp_count(Sim *s, int64_t block)
{
    MapSlot *c = map_get(&s->awrp_counts, block);
    return c ? c->a : 0;
}

static int64_t
awrp_choose(Sim *s, const Way *w, int32_t len, int64_t assoc)
{
    double weight = s->awrp_weight;
    int64_t mru = assoc - 1;
    int64_t best_pos = 0;
    double best = (double)mru + weight * (double)awrp_count(s, w[0].block);
    for (int32_t pos = 1; pos < len; pos++) {
        double rank = (double)(mru - pos) +
                      weight * (double)awrp_count(s, w[pos].block);
        if (rank <= best) {
            best = rank;
            best_pos = pos;
        }
    }
    return best_pos;
}

static void
awrp_on_hit(Sim *s, int64_t block)
{
    MapSlot *c = map_get(&s->awrp_counts, block);
    int64_t current = c ? c->a : 0;
    if (current < 16) { /* COUNT_CAP */
        if (c) {
            c->a = current + 1;
        }
        else if (!map_put(&s->awrp_counts, block, current + 1, 0.0)) {
            s->oom = 1;
        }
    }
}

static void
awrp_on_fill(Sim *s, int64_t block)
{
    if (!map_put(&s->awrp_counts, block, 1, 0.0)) {
        s->oom = 1;
        return;
    }
    s->awrp_fills += 1;
    if (s->awrp_fills % 4096 == 0) { /* DECAY_FILLS */
        Map fresh;
        if (map_init(&fresh, s->awrp_counts.n) < 0) {
            s->oom = 1;
            return;
        }
        for (size_t i = 0; i < s->awrp_counts.cap; i++) {
            MapSlot *slot = &s->awrp_counts.slots[i];
            if (slot->key != MAP_EMPTY && slot->a > 1) {
                if (!map_put(&fresh, slot->key, slot->a >> 1, 0.0)) {
                    s->oom = 1;
                    map_free(&fresh);
                    return;
                }
            }
        }
        map_free(&s->awrp_counts);
        s->awrp_counts = fresh;
        if (!map_put(&s->awrp_counts, block, 1, 0.0)) {
            s->oom = 1;
        }
    }
}

static void
ehc_note(Sim *s, int64_t block, int64_t seq)
{
    MapSlot *last = map_get(&s->ehc_last, block);
    if (!last) {
        if (!map_put(&s->ehc_last, block, seq, 0.0)) {
            s->oom = 1;
        }
        s->ehc_pending = s->never;
        return;
    }
    int64_t interval = seq - last->a;
    last->a = seq;
    MapSlot *iv = map_get(&s->ehc_intervals, block);
    Py_ssize_t idx;
    if (!iv) {
        idx = ivpool_new(&s->ehc_pool);
        if (idx < 0 || !map_put(&s->ehc_intervals, block, idx, 0.0)) {
            s->oom = 1;
            return;
        }
    }
    else {
        idx = (Py_ssize_t)iv->a;
    }
    ivpool_append(&s->ehc_pool, idx, interval);
    s->ehc_pending = seq + ivpool_mean_floor(&s->ehc_pool, idx);
}

/* Tree-PLRU (plru._TreeState): node i has children 2i+1 and 2i+2; a
 * bit of 0 means the LRU side is the left subtree. */

#define PLRU_TREE(s, set) ((s)->plru_bits + (set) * ((s)->l2.assoc - 1))

static void
plru_touch(uint8_t *bits, int64_t n_ways, int64_t way)
{
    int64_t node = 0, low = 0, high = n_ways;
    while (high - low > 1) {
        int64_t mid = (low + high) / 2;
        if (way < mid) {
            bits[node] = 1;
            node = 2 * node + 1;
            high = mid;
        }
        else {
            bits[node] = 0;
            node = 2 * node + 2;
            low = mid;
        }
    }
}

static int64_t
plru_victim(const uint8_t *bits, int64_t n_ways)
{
    int64_t node = 0, low = 0, high = n_ways;
    while (high - low > 1) {
        int64_t mid = (low + high) / 2;
        if (bits[node] == 0) {
            node = 2 * node + 1;
            high = mid;
        }
        else {
            node = 2 * node + 2;
            low = mid;
        }
    }
    return low;
}

/* CostAwareTreePLRUPolicy.choose_victim: the reject walk. */
static int64_t
cost_plru_victim(uint8_t *bits, int64_t n_ways, const Way *w,
                 const Pol *pol)
{
    int64_t victim = plru_victim(bits, n_ways);
    for (int64_t i = 0; i < pol->max_rejects; i++) {
        if (w[victim].cost_q < pol->threshold) {
            break;
        }
        plru_touch(bits, n_ways, victim);
        victim = plru_victim(bits, n_ways);
    }
    return victim;
}

/* TournamentController.winner: lowest normalized score, lowest index
 * on ties (min() keeps the first minimum). */
static Py_ssize_t
tournament_winner(const Sim *s)
{
    Py_ssize_t best = 0;
    double best_rate = s->t_scores[0] / s->t_accesses[0];
    for (Py_ssize_t i = 1; i < s->n_pols; i++) {
        double rate = s->t_scores[i] / s->t_accesses[i];
        if (rate < best_rate) {
            best_rate = rate;
            best = i;
        }
    }
    return best;
}

/* TournamentController.observe_access: every leader access decays its
 * owner's running score and access count. */
static void
tournament_decay(Sim *s, Py_ssize_t owner)
{
    s->t_scores[owner] *= s->t_decay;
    s->t_accesses[owner] = s->t_accesses[owner] * s->t_decay + 1.0;
}

/* Open a new phase sample; the previous one stays in the array. */
static void
phase_open(Sim *s, int64_t start_instr, double start_cycle)
{
    if (s->n_phases == s->phases_cap) {
        Py_ssize_t cap = s->phases_cap ? s->phases_cap * 2 : 16;
        Phase *a = (Phase *)realloc(s->phases, (size_t)cap * sizeof(Phase));
        if (!a) {
            s->oom = 1;
            return;
        }
        s->phases = a;
        s->phases_cap = cap;
    }
    Phase *ph = &s->phases[s->n_phases++];
    memset(ph, 0, sizeof(*ph));
    ph->start_instr = start_instr;
    ph->start_cycle = start_cycle;
}

/* PSEL saturating updates (PolicySelector.increment/decrement) */

static void
psel_increment(Sim *s, Py_ssize_t idx, int64_t amount)
{
    int64_t v = s->psel_val[idx] + amount;
    if (v > s->psel_max) {
        v = s->psel_max;
    }
    s->psel_val[idx] = v;
    s->psel_incs[idx] += amount;
    s->psel_inc_calls[idx] += 1;
}

static void
psel_decrement(Sim *s, Py_ssize_t idx, int64_t amount)
{
    int64_t v = s->psel_val[idx] - amount;
    if (v < 0) {
        v = 0;
    }
    s->psel_val[idx] = v;
    s->psel_decs[idx] += amount;
    s->psel_dec_calls[idx] += 1;
}

/* The controllers' deferred `pending(cost_q)` callables. */
static void
apply_pending(Sim *s, const MEntry *e, int64_t amount)
{
    if (e->pend_kind == 1) {
        psel_decrement(s, 0, amount);
    }
    else if (e->pend_kind == 3) {
        /* +1 keeps zero-cost misses from being free */
        s->t_scores[e->pend_idx] += 1.0 + (double)amount;
        s->t_charges[e->pend_idx] += 1;
    }
    else if (e->pend_kind == 2) {
        if (e->pend_fill_set >= 0) {
            Way *w = TAGS_SET(&s->atd_lin, e->pend_fill_set);
            int32_t len = s->atd_lin.len[e->pend_fill_set];
            for (int32_t i = 0; i < len; i++) {
                if (w[i].fill_seq == e->pend_fill_seq) {
                    w[i].cost_q = amount;
                    break;
                }
            }
        }
        if (e->pend_psel_op == 1) {
            psel_increment(s, e->pend_idx, amount);
        }
        else if (e->pend_psel_op == 2) {
            psel_decrement(s, e->pend_idx, amount);
        }
    }
}

/* Cost sink: `sentry[2].cost_q = bkt` on the MTD fill state.  The
 * state is identified by (set_index, fill_seq); if it was evicted the
 * write lands nowhere, exactly like Python patching a dead object. */
static void
patch_cost(Sim *s, int32_t set_index, int64_t fill_seq, int64_t bkt)
{
    Way *w = TAGS_SET(&s->l2, set_index);
    int32_t len = s->l2.len[set_index];
    for (int32_t i = 0; i < len; i++) {
        if (w[i].fill_seq == fill_seq) {
            w[i].cost_q = bkt;
            return;
        }
    }
}

/* A first serviced cost, in DeltaTracker._last_cost insertion order. */
static void
cost_order_append(Sim *s, int32_t id)
{
    if (s->n_cost_order == s->cost_order_cap) {
        Py_ssize_t cap = s->cost_order_cap ? s->cost_order_cap * 2 : 1024;
        int32_t *a = (int32_t *)realloc(s->cost_order,
                                        (size_t)cap * sizeof(int32_t));
        if (!a) {
            s->oom = 1;
            return;
        }
        s->cost_order = a;
        s->cost_order_cap = cap;
    }
    s->cost_order[s->n_cost_order++] = id;
}

/* min(cost // qstep, max_q), as quantize_cost computes it: the largest
 * k <= max_q with k * qstep <= cost.  Exact because cost >= 0 (the
 * accumulator never decreases): the rounded quotient can only round up
 * across an integer, never down. */
static ALWAYS_INLINE int64_t
cost_bucket(double cost, double qstep, int64_t max_q)
{
    if (cost >= (double)max_q * qstep) {
        return max_q;
    }
    int64_t k = (int64_t)(cost / qstep);
    if ((double)k * qstep > cost) {
        k -= 1;
    }
    return k;
}

/* MSHRFile._advance sweep (and drain when `all` is set): pops due
 * entries, integrates Algorithm 1, quantizes, feeds the histogram,
 * delta tracker and deferred updates — then advances the clock. */
static void
mshr_sweep(Sim *s, double target, int all)
{
    double now = s->m_now;
    while (s->md.n && (all || MRING_FRONT(&s->md).complete <= target)) {
        MEntry e = mring_popleft(&s->md);
        if (e.complete > now) {
            s->m_acc += (e.complete - now) / (double)s->m_live;
            now = e.complete;
        }
        double cost = s->m_acc - e.acc_start;
        if (s->n_adders) {
            cost = floor(cost * (double)s->n_adders) / (double)s->n_adders;
        }
        s->m_live -= 1;
        if (s->ids.fill_serial[e.id] == e.serial) {
            ids_land(&s->ids, e.id);
        }
        int64_t bkt = cost_bucket(cost, s->qstep, s->max_q);
        patch_cost(s, e.set_index, e.fill_seq, bkt);
        if (e.phase >= 0) {
            s->phases[e.phase].cost_q_sum += bkt;
            s->phases[e.phase].cost_count += 1;
        }
        s->dist_counts[bkt] += 1;
        s->dist_total += 1;
        s->dist_cost_sum += cost;
        double prev = s->ids.cost[e.id];
        s->ids.cost[e.id] = cost;
        if (!isnan(prev)) {
            double dv = fabs(cost - prev);
            s->delta_count += 1;
            s->delta_sum += dv;
            if (dv < 60) {
                s->delta_below += 1;
            }
            else if (dv < 120) {
                s->delta_mid += 1;
            }
            else {
                s->delta_high += 1;
            }
        }
        else if (s->pf.on) {
            cost_order_append(s, e.id);
        }
        if (e.pend_kind) {
            apply_pending(s, &e, bkt);
        }
    }
    if (target > now && s->m_live) {
        s->m_acc += (target - now) / (double)s->m_live;
    }
    s->m_now = target > now ? target : now;
}

/* MemoryController.write_line: bus first, then bank. */
static void
write_back_mem(Sim *s, int64_t wb_block, double when)
{
    while (s->mif.n && s->mif.a[0] <= when) {
        dheap_pop(&s->mif);
    }
    while (s->mif.n >= s->memory_max) {
        double earliest = dheap_pop(&s->mif);
        if (earliest > when) {
            when = earliest;
            s->mem_queueing += 1;
        }
    }
    double start = s->bus_free;
    if (start > when) {
        s->bus_contended += 1;
    }
    else {
        start = when;
    }
    s->bus_free = start + s->bus_occupancy;
    s->bus_transfers += 1;
    double arrive = start + s->bus_transfer_delay;
    int64_t bank = mod_index(wb_block, s->n_banks, s->bank_mask);
    double bank_start = s->bank_free[bank];
    if (bank_start > arrive) {
        s->bank_conflicts += 1;
    }
    else {
        bank_start = arrive;
    }
    double data_ready = bank_start + s->bank_latency;
    s->bank_free[bank] = data_ready;
    s->bank_accesses += 1;
    if (dheap_push(&s->mif, data_ready) < 0) {
        s->oom = 1;
    }
    if (s->mif.n > s->mem_peak) {
        s->mem_peak = s->mif.n;
    }
    s->mem_requests += 1;
    s->mem_writebacks += 1;
}

/* StoreBuffer.admit */
static double
sb_admit(Sim *s, double when, double completion)
{
    DHeap *h = &s->sb;
    while (h->n && h->a[0] <= when) {
        dheap_pop(h);
    }
    while (h->n >= s->sb_capacity) {
        double earliest = dheap_pop(h);
        if (earliest > when) {
            when = earliest;
            s->sb_full_stalls += 1;
        }
    }
    if (dheap_push(h, completion > when ? completion : when) < 0) {
        s->oom = 1;
    }
    return when;
}

/* MSHRFile._advance(target) before an allocation: sweep the misses
 * serviced by `target`, or just integrate Algorithm 1 up to it. */
static ALWAYS_INLINE void
mshr_advance(Sim *s, double target)
{
    if (s->md.n && MRING_FRONT(&s->md).complete <= target) {
        mshr_sweep(s, target, 0);
    }
    else if (target > s->m_now) {
        if (s->m_live) {
            s->m_acc += (target - s->m_now) / (double)s->m_live;
        }
        s->m_now = target;
    }
}

/* MSHRFile.admission_time: the earliest time >= `when` with a free
 * entry. */
static ALWAYS_INLINE double
mshr_admit(Sim *s, double when)
{
    while (s->occ.n && DRING_FRONT(&s->occ) <= when) {
        dring_popleft(&s->occ);
    }
    while (s->occ.n >= s->m_entries) {
        double earliest = dring_popleft(&s->occ);
        if (earliest > when) {
            when = earliest;
            s->m_full_stalls += 1;
        }
    }
    return when;
}

/* The occupancy half of MSHRFile.allocate, demand or not. */
static ALWAYS_INLINE void
mshr_occupy(Sim *s, double completion)
{
    if (dring_append(&s->occ, completion) < 0) {
        s->oom = 1;
    }
    s->m_allocations += 1;
    if (s->occ.n > s->m_peak) {
        s->m_peak = s->occ.n;
    }
    Py_ssize_t b = 0;
    while (b < s->n_occ_bounds && s->occ.n > s->occ_bounds[b]) {
        b++;
    }
    s->occ_counts[b] += 1;
}

/* MemoryController.read_line: bank, then bus; returns the fill time. */
static ALWAYS_INLINE double
mem_read(Sim *s, int64_t block, double when)
{
    while (s->mif.n && s->mif.a[0] <= when) {
        dheap_pop(&s->mif);
    }
    while (s->mif.n >= s->memory_max) {
        double earliest = dheap_pop(&s->mif);
        if (earliest > when) {
            when = earliest;
            s->mem_queueing += 1;
        }
    }
    int64_t bank = mod_index(block, s->n_banks, s->bank_mask);
    double bank_start = s->bank_free[bank];
    if (bank_start > when) {
        s->bank_conflicts += 1;
    }
    else {
        bank_start = when;
    }
    double data_ready = bank_start + s->bank_latency;
    s->bank_free[bank] = data_ready;
    s->bank_accesses += 1;
    double bus_start = s->bus_free;
    if (bus_start > data_ready) {
        s->bus_contended += 1;
    }
    else {
        bus_start = data_ready;
    }
    s->bus_free = bus_start + s->bus_occupancy;
    s->bus_transfers += 1;
    double completion = bus_start + s->bus_transfer_delay;
    if (dheap_push(&s->mif, completion) < 0) {
        s->oom = 1;
    }
    if (s->mif.n > s->mem_peak) {
        s->mem_peak = s->mif.n;
    }
    s->mem_requests += 1;
    return completion;
}

/* The controller's policy_for_set (SBAR counts follower accesses);
 * CBS also names the PSEL that owns the set. */
static ALWAYS_INLINE Pol *
l2_policy(Sim *s, int64_t set_index, int role, Py_ssize_t *psel_idx)
{
    switch (s->controller_kind) {
    case CTRL_SBAR:
        if (role) {
            return &s->pols[0];
        }
        if (s->psel_val[0] >= s->psel_msb) {
            s->follower_lin += 1;
            return &s->pols[0];
        }
        s->follower_lru += 1;
        return &s->pols[1];
    case CTRL_CBS:
        *psel_idx = s->cbs_local ? (Py_ssize_t)set_index : 0;
        return &s->pols[s->psel_val[*psel_idx] >= s->psel_msb ? 0 : 1];
    case CTRL_DIP:
        /* MSB set means the LRU leaders miss more: follow BIP */
        if (role) {
            return &s->pols[role - 1];
        }
        return &s->pols[s->psel_val[0] >= s->psel_msb ? 1 : 0];
    case CTRL_TOURNAMENT:
        return &s->pols[role ? role - 1 : tournament_winner(s)];
    default:
        return &s->pols[0];
    }
}

/* The miss half of SetAssociativeCache.access under `pol`: a full set
 * evicts the policy's victim into *victim, then `fill` lands where the
 * policy inserts.  Returns whether a victim was evicted. */
static ALWAYS_INLINE int
l2_fill(Sim *s, Pol *pol, int64_t set_index, Way fill, Way *victim)
{
    Way *lw = TAGS_SET(&s->l2, set_index);
    int32_t *llen = &s->l2.len[set_index];
    int have_victim = 0;
    int64_t vpos = *llen; /* a cold fill takes the next free slot */
    if (*llen >= (int32_t)s->l2.assoc) {
        switch (pol->kind) {
        case POL_LIN:
            vpos = lin_choose(lw, *llen, s->l2.assoc, pol->lam);
            break;
        case POL_EHC:
            vpos = ehc_choose(lw, *llen);
            break;
        case POL_AWRP:
            vpos = awrp_choose(s, lw, *llen, s->l2.assoc);
            break;
        case POL_PLRU:
            vpos = plru_victim(PLRU_TREE(s, set_index), s->l2.assoc);
            break;
        case POL_COST_PLRU:
            vpos = cost_plru_victim(PLRU_TREE(s, set_index), s->l2.assoc,
                                    lw, pol);
            break;
        default: /* LRU, LIP, BIP evict the LRU tail */
            vpos = *llen - 1;
        }
        *victim = tags_evict(lw, llen, (int32_t)vpos);
        have_victim = 1;
        s->l2_evictions += 1;
        if (victim->dirty) {
            s->l2_writebacks += 1;
        }
    }
    switch (pol->kind) {
    case POL_EHC:
        fill.next_use = s->ehc_pending; /* EHCPolicy.on_fill */
        tags_insert_mru(lw, llen, fill);
        break;
    case POL_AWRP:
        awrp_on_fill(s, fill.block); /* AWRPPolicy.on_fill */
        tags_insert_mru(lw, llen, fill);
        break;
    case POL_LIP:
        tags_insert_at(lw, llen, *llen, fill);
        break;
    case POL_BIP:
        pol->fills += 1;
        tags_insert_at(lw, llen, pol->fills % pol->period == 0 ? 0 : *llen,
                       fill);
        break;
    case POL_PLRU:
    case POL_COST_PLRU:
        /* the fill lands in the victim's physical slot */
        tags_insert_at(lw, llen, (int32_t)vpos, fill);
        plru_touch(PLRU_TREE(s, set_index), s->l2.assoc, vpos);
        break;
    default:
        tags_insert_mru(lw, llen, fill);
    }
    return have_victim;
}

/* Inclusion: an L2 victim leaves both L1s, without a writeback. */
static ALWAYS_INLINE void
l1_invalidate(Sim *s, int64_t block)
{
    int64_t set = tags_set_of(&s->l1d, block);
    Way *w = TAGS_SET(&s->l1d, set);
    int32_t pos = tags_find(w, s->l1d.len[set], block);
    if (pos >= 0) {
        tags_evict(w, &s->l1d.len[set], pos);
    }
    set = tags_set_of(&s->l1i, block);
    w = TAGS_SET(&s->l1i, set);
    pos = tags_find(w, s->l1i.len[set], block);
    if (pos >= 0) {
        tags_evict(w, &s->l1i.len[set], pos);
    }
}

/* Simulator._prefetch_block: one non-demand fill of `block` into the
 * L2, requested at `when`.  It takes an MSHR entry that no cost sink
 * or demand count sees, and an L2 fill that counts as an access and a
 * miss but never reaches the controller's observe_access. */
static void
prefetch_block(Sim *s, int64_t block, double when)
{
    int64_t set_index = tags_set_of(&s->l2, block);
    if (tags_find(TAGS_SET(&s->l2, set_index), s->l2.len[set_index],
                  block) >= 0) {
        s->pf.suppressed += 1;
        return;
    }
    /* MSHRFile.in_flight: a non-counting probe that drops nothing */
    int32_t id = ids_get(&s->ids, block, NULL);
    if (id >= 0 && s->ids.fill_serial[id] >= 0 &&
        s->ids.fill_done[id] > when) {
        s->pf.suppressed += 1;
        return;
    }
    double issue = mshr_admit(s, when);
    if (issue < s->m_now) {
        issue = s->m_now;
    }
    double completion = mem_read(s, block, issue);
    mshr_advance(s, issue);
    mshr_occupy(s, completion);

    int role = s->roles ? s->roles[set_index] : 0;
    Py_ssize_t psel_idx = 0;
    Pol *pol = l2_policy(s, set_index, role, &psel_idx);
    int64_t seq = s->l2_seq;
    s->l2_seq = seq + 1;
    s->l2_accesses += 1;
    if (pol->kind == POL_EHC) {
        ehc_note(s, block, seq);
    }
    s->l2_misses += 1;
    if (id < 0) {
        int fresh = 0;
        id = ids_get(&s->ids, block, &fresh);
        if (id < 0) {
            s->oom = 1;
            return;
        }
        if (s->track_seen) {
            s->l2_compulsory += 1;
        }
    }
    /* MSHRFile._in_flight[block] = entry, replacing a landed one */
    if (s->ids.fill_serial[id] < 0) {
        s->ids.in_flight += 1;
    }
    s->ids.fill_serial[id] = s->m_serial++;
    s->ids.fill_done[id] = completion;
    if (!map_put(&s->pf.issue, id, 0, issue)) {
        s->oom = 1;
    }

    Way victim;
    Way fill = {block, seq, 0, 0, 0, id};
    if (l2_fill(s, pol, set_index, fill, &victim)) {
        if (victim.dirty) {
            write_back_mem(s, victim.block, issue);
        }
        l1_invalidate(s, victim.block);
    }
    s->pf.issued += 1;
}

/* The prefetcher after a demand miss that allocated at `issue`: train
 * on the block, then prefetch `degree` blocks along a confident stride,
 * dropping negative ones.  Kept out of line so runs without a
 * prefetcher pay one branch per allocating miss. */
static void __attribute__((noinline))
prefetch_after_miss(Sim *s, int64_t block, double issue)
{
    int64_t stride = pf_observe(&s->pf, block);
    if (stride == 0) {
        return;
    }
    for (int64_t ahead = 1; ahead <= s->pf.degree; ahead++) {
        int64_t step, candidate;
        if (__builtin_mul_overflow(stride, ahead, &step) ||
            __builtin_add_overflow(block, step, &candidate)) {
            if (stride > 0) {
                /* Python would go past int64; stops the loop, and
                 * replay() reports the overflow */
                s->overflow = "prefetch prediction past int64";
                s->oom = 1;
            }
            return; /* a negative stride only gets more negative */
        }
        if (candidate < 0) {
            return;
        }
        s->pf.predictions += 1;
        prefetch_block(s, candidate, issue);
    }
}

/* ---------------------------------------------------------------- */
/* The replay loop                                                   */
/* ---------------------------------------------------------------- */

static void
run_loop(Sim *s)
{
    const double dwidth = (double)s->win_width;

    for (Py_ssize_t i = 0; i < s->n && !s->oom; i++) {
        int64_t block = s->addrs[i] >> s->block_bits;
        int64_t kind = s->kinds[i];
        /* the instruction clock; the window's reach past it must fit
         * in int64 too */
        int64_t g1, target;
        if (__builtin_add_overflow(s->gaps[i], 1, &g1) ||
            __builtin_add_overflow(s->win_index, g1, &target) ||
            target > INT64_MAX - s->win_size) {
            s->overflow = "instruction count past int64";
            s->oom = 1;
            break;
        }
        double dt = (double)g1 / dwidth;
        int64_t set_index = tags_set_of(&s->l2, block);

        /* ---- WindowModel.advance, inlined ---- */
        if (s->wp.n && WRING_FRONT(&s->wp).index + s->win_size <= target) {
            while (s->wp.n &&
                   WRING_FRONT(&s->wp).index + s->win_size <= target) {
                WinEntry e = wring_popleft(&s->wp);
                int64_t reach = e.index + s->win_size;
                double arrival =
                    s->win_time + (double)(reach - s->win_index) / dwidth;
                if (e.frontier > arrival) {
                    s->stall_cycles += e.frontier - arrival;
                    s->stall_events += 1;
                    if (e.frontier - arrival >= s->long_stall_threshold) {
                        s->long_stalls += 1;
                    }
                    s->win_time = e.frontier;
                }
                else {
                    s->win_time = arrival;
                }
                s->win_index = reach;
            }
            s->win_time += (double)(target - s->win_index) / dwidth;
        }
        else {
            s->win_time += dt;
        }
        s->win_index = target;
        double dispatch = s->win_time;

        /* ---- SBARController.note_instructions: a new rand-dynamic
         * epoch swaps the leaders and starts a fresh ATD-LRU ---- */
        if (s->next_epoch < s->n_epochs &&
            target >= s->epoch_starts[s->next_epoch]) {
            s->roles = s->epoch_roles[s->next_epoch++];
            memset(s->atd_lru.len, 0,
                   (size_t)s->atd_lru.n_sets * sizeof(int32_t));
            s->atd_seq = s->atd_accesses = s->atd_hits = s->atd_misses = 0;
        }
        /* ---- phase cut ---- */
        if (s->phase_interval &&
            target / s->phase_interval !=
                s->phases[s->n_phases - 1].start_instr / s->phase_interval) {
            Phase *closing = &s->phases[s->n_phases - 1];
            closing->end_instr = target;
            closing->end_cycle = dispatch;
            phase_open(s, target, dispatch);
        }

        /* ---- L1 probe ---- */
        int is_ifetch, is_store;
        double l1_done;
        Tags *l1;
        int64_t l1_set;
        if (kind == s->ifetch_kind) {
            l1 = &s->l1i;
            l1_set = tags_set_of(&s->l1i, block);
            Way *w = TAGS_SET(l1, l1_set);
            int32_t pos = tags_find(w, l1->len[l1_set], block);
            if (pos >= 0) {
                s->l1i_seq += 1;
                s->l1i_accesses += 1;
                s->l1i_hits += 1;
                tags_touch(w, pos);
                double completion = dispatch + s->l1i_latency;
                if (completion > s->retire_cummax) {
                    s->retire_cummax = completion;
                }
                if (completion > s->final_completion) {
                    s->final_completion = completion;
                }
                if (wring_append(&s->wp, s->win_index, s->retire_cummax) < 0) {
                    s->oom = 1;
                }
                continue;
            }
            is_ifetch = 1;
            is_store = 0;
            l1_done = dispatch + s->l1i_latency;
        }
        else {
            l1 = &s->l1d;
            l1_set = tags_set_of(&s->l1d, block);
            Way *w = TAGS_SET(l1, l1_set);
            int32_t pos = tags_find(w, l1->len[l1_set], block);
            is_store = kind == s->store_kind;
            if (pos >= 0) {
                s->l1d_seq += 1;
                s->l1d_accesses += 1;
                s->l1d_hits += 1;
                tags_touch(w, pos);
                if (is_store) {
                    w[0].dirty = 1;
                    double admitted =
                        sb_admit(s, dispatch, dispatch + s->l1d_latency);
                    if (admitted > dispatch) {
                        s->stall_cycles += admitted - s->win_time;
                        s->stall_events += 1;
                        if (admitted - s->win_time >=
                            s->long_stall_threshold) {
                            s->long_stalls += 1;
                        }
                        s->win_time = admitted;
                    }
                }
                else {
                    double completion = dispatch + s->l1d_latency;
                    if (completion > s->retire_cummax) {
                        s->retire_cummax = completion;
                    }
                    if (completion > s->final_completion) {
                        s->final_completion = completion;
                    }
                    if (wring_append(&s->wp, s->win_index,
                                     s->retire_cummax) < 0) {
                        s->oom = 1;
                    }
                }
                continue;
            }
            is_ifetch = 0;
            l1_done = dispatch + s->l1d_latency;
        }

        /* ---- MSHRFile._advance(dispatch) ---- */
        if (dispatch > s->m_now) {
            mshr_advance(s, dispatch);
        }

        /* ---- L1 fill ---- */
        {
            int64_t seq;
            if (is_ifetch) {
                seq = s->l1i_seq;
                s->l1i_seq = seq + 1;
                s->l1i_accesses += 1;
                s->l1i_misses += 1;
            }
            else {
                seq = s->l1d_seq;
                s->l1d_seq = seq + 1;
                s->l1d_accesses += 1;
                s->l1d_misses += 1;
            }
            Way *w = TAGS_SET(l1, l1_set);
            int32_t *len = &l1->len[l1_set];
            Way l1_victim;
            int have_victim = 0;
            if (*len >= (int32_t)l1->assoc) {
                l1_victim = tags_evict(w, len, *len - 1);
                have_victim = 1;
                if (is_ifetch) {
                    s->l1i_evictions += 1;
                    s->l1i_writebacks += l1_victim.dirty;
                }
                else {
                    s->l1d_evictions += 1;
                    s->l1d_writebacks += l1_victim.dirty;
                }
            }
            Way nw = {block, seq, 0, 0, 0, 0};
            tags_insert_mru(w, len, nw);
            if (is_store) {
                w[0].dirty = 1;
            }
            if (have_victim && l1_victim.dirty) {
                /* Simulator._l1_writeback, inlined */
                int64_t vb = l1_victim.block;
                int64_t vset = tags_set_of(&s->l2, vb);
                Way *lw = TAGS_SET(&s->l2, vset);
                int32_t pos = tags_find(lw, s->l2.len[vset], vb);
                if (pos >= 0) {
                    lw[pos].dirty = 1;
                }
                else {
                    write_back_mem(s, vb, dispatch);
                }
            }
        }

        /* ---- L2 lookup: the controller's policy_for_set ---- */
        int role = s->roles ? s->roles[set_index] : 0;
        Py_ssize_t psel_idx = 0;
        Pol *pol = l2_policy(s, set_index, role, &psel_idx);
        int is_plru = pol->kind == POL_PLRU || pol->kind == POL_COST_PLRU;
        int64_t seq = s->l2_seq;
        s->l2_seq = seq + 1;
        s->l2_accesses += 1;
        if (pol->kind == POL_EHC) {
            ehc_note(s, block, seq);
        }
        Way *lw = TAGS_SET(&s->l2, set_index);
        int32_t *llen = &s->l2.len[set_index];
        int32_t pos = tags_find(lw, *llen, block);
        double completion;
        if (pos >= 0) {
            /* ---- L2 hit ---- */
            s->l2_hits += 1;
            Way *hw;
            if (is_plru) {
                /* ways are pinned to slots; the tree holds recency */
                plru_touch(PLRU_TREE(s, set_index), s->l2.assoc, pos);
                hw = &lw[pos];
            }
            else {
                tags_touch(lw, pos); /* default move-to-MRU */
                hw = &lw[0];
                if (pol->kind == POL_EHC) {
                    hw->next_use = s->ehc_pending;
                }
                else if (pol->kind == POL_AWRP) {
                    awrp_on_hit(s, block);
                }
            }
            int64_t hit_cost_q = hw->cost_q;
            int32_t hit_id = hw->id;
            if (s->controller_kind == CTRL_SBAR) {
                if (role) {
                    int64_t aseq = s->atd_seq;
                    s->atd_seq = aseq + 1;
                    s->atd_accesses += 1;
                    Way *aw = TAGS_SET(&s->atd_lru, set_index);
                    int32_t *alen = &s->atd_lru.len[set_index];
                    int32_t apos = tags_find(aw, *alen, block);
                    if (apos >= 0) {
                        s->atd_hits += 1;
                        tags_touch(aw, apos);
                    }
                    else {
                        s->atd_misses += 1;
                        if (*alen >= (int32_t)s->atd_assoc) {
                            tags_evict(aw, alen, *alen - 1);
                        }
                        Way anw = {block, aseq, 0, 0, 0, 0};
                        tags_insert_mru(aw, alen, anw);
                        psel_increment(s, 0, hit_cost_q);
                    }
                }
            }
            else if (s->controller_kind == CTRL_CBS) {
                int64_t aseq = s->atd_seq;
                s->atd_seq = aseq + 1;
                s->atd_accesses += 1;
                Way *aw = TAGS_SET(&s->atd_lru, set_index);
                int32_t *alen = &s->atd_lru.len[set_index];
                int32_t apos = tags_find(aw, *alen, block);
                int lru_hit;
                if (apos >= 0) {
                    s->atd_hits += 1;
                    lru_hit = 1;
                    tags_touch(aw, apos);
                }
                else {
                    s->atd_misses += 1;
                    lru_hit = 0;
                    if (*alen >= (int32_t)s->atd_assoc) {
                        tags_evict(aw, alen, *alen - 1);
                    }
                    Way anw = {block, aseq, 0, 0, 0, 0};
                    tags_insert_mru(aw, alen, anw);
                }
                aseq = s->atd2_seq;
                s->atd2_seq = aseq + 1;
                s->atd2_accesses += 1;
                aw = TAGS_SET(&s->atd_lin, set_index);
                alen = &s->atd_lin.len[set_index];
                apos = tags_find(aw, *alen, block);
                int lin_hit;
                if (apos >= 0) {
                    s->atd2_hits += 1;
                    lin_hit = 1;
                    tags_touch(aw, apos);
                }
                else {
                    s->atd2_misses += 1;
                    lin_hit = 0;
                    if (*alen >= (int32_t)s->atd_assoc) {
                        int64_t apick = lin_choose(aw, *alen, s->atd_assoc,
                                                   s->pols[0].lam);
                        tags_evict(aw, alen, (int32_t)apick);
                    }
                    Way anw = {block, aseq, 0, hit_cost_q, 0, 0};
                    tags_insert_mru(aw, alen, anw);
                }
                if (lin_hit != lru_hit) {
                    if (lin_hit) {
                        psel_increment(s, psel_idx, hit_cost_q);
                    }
                    else {
                        psel_decrement(s, psel_idx, hit_cost_q);
                    }
                }
            }
            else if (s->controller_kind == CTRL_TOURNAMENT && role) {
                tournament_decay(s, role - 1);
            }
            completion = l1_done + s->l2_latency;
            if (s->ids.fill_serial[hit_id] >= 0) {
                double in_flight = s->ids.fill_done[hit_id];
                if (in_flight <= l1_done) {
                    ids_land(&s->ids, hit_id);
                }
                else if (in_flight > completion) {
                    completion = in_flight;
                }
            }
        }
        else {
            /* ---- L2 miss: fill, then the MSHR/memory path ---- */
            s->l2_misses += 1;
            int fresh = 0;
            int32_t id = ids_get(&s->ids, block, &fresh);
            if (id < 0) {
                s->oom = 1;
                continue;
            }
            Way victim;
            Way nst = {block, seq, 0, 0, 0, id};
            int have_victim = l2_fill(s, pol, set_index, nst, &victim);
            int compulsory = fresh && s->track_seen;
            if (compulsory) {
                s->l2_compulsory += 1;
            }
            uint8_t pend_kind = 0;
            int8_t pend_psel_op = 0;
            int32_t pend_idx = (int32_t)psel_idx;
            int32_t pend_fill_set = -1;
            int64_t pend_fill_seq = 0;
            if (s->controller_kind == CTRL_SBAR) {
                if (role) {
                    int64_t aseq = s->atd_seq;
                    s->atd_seq = aseq + 1;
                    s->atd_accesses += 1;
                    Way *aw = TAGS_SET(&s->atd_lru, set_index);
                    int32_t *alen = &s->atd_lru.len[set_index];
                    int32_t apos = tags_find(aw, *alen, block);
                    if (apos >= 0) {
                        s->atd_hits += 1;
                        tags_touch(aw, apos);
                        s->deferred += 1;
                        pend_kind = 1; /* sbar_psel.decrement */
                    }
                    else {
                        s->atd_misses += 1;
                        if (*alen >= (int32_t)s->atd_assoc) {
                            tags_evict(aw, alen, *alen - 1);
                        }
                        Way anw = {block, aseq, 0, 0, 0, 0};
                        tags_insert_mru(aw, alen, anw);
                    }
                }
            }
            else if (s->controller_kind == CTRL_CBS) {
                int64_t aseq = s->atd_seq;
                s->atd_seq = aseq + 1;
                s->atd_accesses += 1;
                Way *aw = TAGS_SET(&s->atd_lru, set_index);
                int32_t *alen = &s->atd_lru.len[set_index];
                int32_t apos = tags_find(aw, *alen, block);
                int lru_hit;
                if (apos >= 0) {
                    s->atd_hits += 1;
                    lru_hit = 1;
                    tags_touch(aw, apos);
                }
                else {
                    s->atd_misses += 1;
                    lru_hit = 0;
                    if (*alen >= (int32_t)s->atd_assoc) {
                        tags_evict(aw, alen, *alen - 1);
                    }
                    Way anw = {block, aseq, 0, 0, 0, 0};
                    tags_insert_mru(aw, alen, anw);
                }
                aseq = s->atd2_seq;
                s->atd2_seq = aseq + 1;
                s->atd2_accesses += 1;
                aw = TAGS_SET(&s->atd_lin, set_index);
                alen = &s->atd_lin.len[set_index];
                apos = tags_find(aw, *alen, block);
                int lin_hit;
                int have_lin_fill = 0;
                if (apos >= 0) {
                    s->atd2_hits += 1;
                    lin_hit = 1;
                    tags_touch(aw, apos);
                }
                else {
                    s->atd2_misses += 1;
                    lin_hit = 0;
                    if (*alen >= (int32_t)s->atd_assoc) {
                        int64_t apick = lin_choose(aw, *alen, s->atd_assoc,
                                                   s->pols[0].lam);
                        tags_evict(aw, alen, (int32_t)apick);
                    }
                    Way anw = {block, aseq, 0, 0, 0, 0};
                    tags_insert_mru(aw, alen, anw);
                    have_lin_fill = 1;
                }
                if (lin_hit != lru_hit) {
                    pend_psel_op = lin_hit ? 1 : 2;
                }
                if (pend_psel_op || have_lin_fill) {
                    s->deferred += 1;
                    pend_kind = 2;
                    if (have_lin_fill) {
                        pend_fill_set = (int32_t)set_index;
                        pend_fill_seq = aseq;
                    }
                }
            }
            else if (s->controller_kind == CTRL_DIP) {
                /* leader-set misses move PSEL by one */
                if (role == 1) {
                    psel_increment(s, 0, 1);
                }
                else if (role == 2) {
                    psel_decrement(s, 0, 1);
                }
            }
            else if (s->controller_kind == CTRL_TOURNAMENT && role) {
                tournament_decay(s, role - 1);
                s->deferred += 1;
                pend_kind = 3; /* charge the serviced cost to the owner */
                pend_idx = role - 1;
            }
            if (have_victim) {
                if (victim.dirty) {
                    write_back_mem(s, victim.block, l1_done);
                }
                l1_invalidate(s, victim.block);
            }
            s->demand_ctr += 1;
            if (compulsory) {
                s->compulsory_ctr += 1;
            }
            int32_t phase = -1;
            if (s->phase_interval) {
                phase = (int32_t)(s->n_phases - 1);
                s->phases[phase].misses += 1;
            }

            /* merge probe (inline MSHRFile.lookup) */
            int in_flight = s->ids.fill_serial[id] >= 0;
            if (in_flight && s->ids.fill_done[id] <= l1_done) {
                ids_land(&s->ids, id);
                in_flight = 0;
            }
            if (in_flight) {
                s->m_merges += 1;
                if (pend_kind) {
                    MEntry pe;
                    pe.pend_kind = pend_kind;
                    pe.pend_psel_op = pend_psel_op;
                    pe.pend_idx = pend_idx;
                    pe.pend_fill_set = pend_fill_set;
                    pe.pend_fill_seq = pend_fill_seq;
                    apply_pending(s, &pe, 0);
                }
                completion = l1_done + s->l2_latency;
                if (s->ids.fill_done[id] > completion) {
                    completion = s->ids.fill_done[id];
                }
            }
            else {
                double issue = mshr_admit(s, l1_done + s->l2_latency);
                if (issue < s->m_now) {
                    issue = s->m_now;
                }
                completion = mem_read(s, block, issue);
                mshr_advance(s, issue);

                /* MSHRFile.allocate (demand read) */
                MEntry me;
                me.complete = completion;
                me.acc_start = s->m_acc;
                me.serial = s->m_serial++;
                me.fill_seq = seq;
                me.set_index = (int32_t)set_index;
                me.id = id;
                me.pend_kind = pend_kind;
                me.pend_psel_op = pend_psel_op;
                me.pend_idx = pend_idx;
                me.phase = phase;
                me.pend_fill_set = pend_fill_set;
                me.pend_fill_seq = pend_fill_seq;
                if (mring_append(&s->md, me) < 0) {
                    s->oom = 1;
                }
                mshr_occupy(s, completion);
                s->ids.fill_serial[id] = me.serial;
                s->ids.fill_done[id] = completion;
                s->ids.in_flight += 1;
                s->m_live += 1;
                if (s->pf.on) {
                    prefetch_after_miss(s, block, issue);
                }
            }
        }

        /* ---- retire ---- */
        if (is_store) {
            double admitted = sb_admit(s, dispatch, completion);
            if (admitted > dispatch) {
                s->stall_cycles += admitted - s->win_time;
                s->stall_events += 1;
                if (admitted - s->win_time >= s->long_stall_threshold) {
                    s->long_stalls += 1;
                }
                s->win_time = admitted;
            }
        }
        else {
            if (completion > s->retire_cummax) {
                s->retire_cummax = completion;
            }
            if (completion > s->final_completion) {
                s->final_completion = completion;
            }
            if (wring_append(&s->wp, s->win_index, s->retire_cummax) < 0) {
                s->oom = 1;
            }
        }
    }

    /* ---- MSHRFile.drain ---- */
    if (s->md.n && !s->oom) {
        double horizon = MRING_FRONT(&s->md).complete;
        for (Py_ssize_t i = 0; i < s->md.n; i++) {
            double c = s->md.a[(s->md.head + i) & (s->md.cap - 1)].complete;
            if (c > horizon) {
                horizon = c;
            }
        }
        mshr_sweep(s, horizon + 1, 1);
    }
}

/* ---------------------------------------------------------------- */
/* Parameter parsing                                                 */
/* ---------------------------------------------------------------- */

typedef struct {
    PyObject *d;
    int err;
} P;

static PyObject *
p_item(P *p, const char *key)
{
    if (p->err) {
        return NULL;
    }
    PyObject *v = PyDict_GetItemString(p->d, key);
    if (!v) {
        PyErr_Format(PyExc_KeyError, "replay kernel: missing param %s", key);
        p->err = 1;
    }
    return v;
}

static int64_t
p_int(P *p, const char *key)
{
    PyObject *v = p_item(p, key);
    if (!v) {
        return 0;
    }
    int64_t r = PyLong_AsLongLong(v);
    if (r == -1 && PyErr_Occurred()) {
        p->err = 1;
        return 0;
    }
    return r;
}

static double
p_dbl(P *p, const char *key)
{
    PyObject *v = p_item(p, key);
    if (!v) {
        return 0.0;
    }
    double r = PyFloat_AsDouble(v);
    if (r == -1.0 && PyErr_Occurred()) {
        p->err = 1;
        return 0.0;
    }
    return r;
}

/* Parse a list of ints into a fresh int64 array (caller frees). */
static int64_t *
p_int_list(P *p, const char *key, Py_ssize_t *n_out)
{
    PyObject *v = p_item(p, key);
    if (!v) {
        return NULL;
    }
    if (!PyList_Check(v)) {
        PyErr_Format(PyExc_TypeError, "param %s must be a list", key);
        p->err = 1;
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(v);
    int64_t *a = (int64_t *)malloc((size_t)(n ? n : 1) * sizeof(int64_t));
    if (!a) {
        PyErr_NoMemory();
        p->err = 1;
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        a[i] = PyLong_AsLongLong(PyList_GET_ITEM(v, i));
        if (a[i] == -1 && PyErr_Occurred()) {
            p->err = 1;
            free(a);
            return NULL;
        }
    }
    *n_out = n;
    return a;
}

static double *
p_dbl_list(P *p, const char *key, Py_ssize_t *n_out)
{
    PyObject *v = p_item(p, key);
    if (!v) {
        return NULL;
    }
    if (!PyList_Check(v)) {
        PyErr_Format(PyExc_TypeError, "param %s must be a list", key);
        p->err = 1;
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(v);
    double *a = (double *)malloc((size_t)(n ? n : 1) * sizeof(double));
    if (!a) {
        PyErr_NoMemory();
        p->err = 1;
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        a[i] = PyFloat_AsDouble(PyList_GET_ITEM(v, i));
        if (a[i] == -1.0 && PyErr_Occurred()) {
            p->err = 1;
            free(a);
            return NULL;
        }
    }
    *n_out = n;
    return a;
}

/* ---------------------------------------------------------------- */
/* Result marshalling                                                */
/* ---------------------------------------------------------------- */

static int
out_int(PyObject *d, const char *key, int64_t v)
{
    PyObject *o = PyLong_FromLongLong(v);
    if (!o) {
        return -1;
    }
    int rc = PyDict_SetItemString(d, key, o);
    Py_DECREF(o);
    return rc;
}

static int
out_dbl(PyObject *d, const char *key, double v)
{
    PyObject *o = PyFloat_FromDouble(v);
    if (!o) {
        return -1;
    }
    int rc = PyDict_SetItemString(d, key, o);
    Py_DECREF(o);
    return rc;
}

static int
out_obj(PyObject *d, const char *key, PyObject *o)
{
    /* steals o (even on failure) */
    if (!o) {
        return -1;
    }
    int rc = PyDict_SetItemString(d, key, o);
    Py_DECREF(o);
    return rc;
}

/* A tag array as one flat int64 buffer: every set's occupancy, then
 * each resident way in set order, MRU first, as WAY_FIELDS values
 * (block, fill_seq, next_use, cost_q, dirty). */
static PyObject *
emit_tags(const Tags *t)
{
    Py_ssize_t ways = 0;
    for (int64_t i = 0; i < t->n_sets; i++) {
        ways += t->len[i];
    }
    PyObject *buf = PyBytes_FromStringAndSize(
        NULL, (t->n_sets + ways * WAY_FIELDS) * (Py_ssize_t)sizeof(int64_t));
    if (!buf) {
        return NULL;
    }
    int64_t *lens = (int64_t *)PyBytes_AS_STRING(buf);
    int64_t *at = lens + t->n_sets;
    for (int64_t i = 0; i < t->n_sets; i++) {
        const Way *w = TAGS_SET(t, i);
        lens[i] = t->len[i];
        for (int32_t j = 0; j < t->len[i]; j++) {
            at[0] = w[j].block;
            at[1] = w[j].fill_seq;
            at[2] = w[j].next_use;
            at[3] = w[j].cost_q;
            at[4] = w[j].dirty;
            at += WAY_FIELDS;
        }
    }
    return buf;
}

/* A raw array as bytes (id-ordered blocks and costs). */
static PyObject *
emit_raw(const void *a, Py_ssize_t n, Py_ssize_t item_size)
{
    return PyBytes_FromStringAndSize(n ? (const char *)a : NULL,
                                     n * item_size);
}

static int
cmp_dbl(const void *a, const void *b)
{
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

static PyObject *
emit_heap_sorted(const DHeap *h)
{
    double *copy = NULL;
    if (h->n) {
        copy = (double *)malloc((size_t)h->n * sizeof(double));
        if (!copy) {
            return PyErr_NoMemory();
        }
        memcpy(copy, h->a, (size_t)h->n * sizeof(double));
        qsort(copy, (size_t)h->n, sizeof(double), cmp_dbl);
    }
    PyObject *list = PyList_New(h->n);
    if (!list) {
        free(copy);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < h->n; i++) {
        PyObject *o = PyFloat_FromDouble(copy[i]);
        if (!o) {
            free(copy);
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, o);
    }
    free(copy);
    return list;
}

/* A block -> int map as flat int64 (key, value) pairs, slot order. */
static PyObject *
emit_pairs(const Map *m)
{
    PyObject *buf = PyBytes_FromStringAndSize(
        NULL, (Py_ssize_t)m->n * 2 * (Py_ssize_t)sizeof(int64_t));
    if (!buf) {
        return NULL;
    }
    int64_t *at = (int64_t *)PyBytes_AS_STRING(buf);
    for (size_t i = 0; i < m->cap; i++) {
        const MapSlot *slot = &m->slots[i];
        if (slot->key != MAP_EMPTY) {
            at[0] = slot->key;
            at[1] = slot->a;
            at += 2;
        }
    }
    return buf;
}

/* EHC's interval deques as flat int64: per block, the block, the
 * deque's length, then its values oldest first. */
static PyObject *
emit_intervals(const Map *m, const IvPool *p)
{
    Py_ssize_t n = 0;
    for (size_t i = 0; i < m->cap; i++) {
        if (m->slots[i].key != MAP_EMPTY) {
            n += 2 + p->cnt[m->slots[i].a];
        }
    }
    PyObject *buf =
        PyBytes_FromStringAndSize(NULL, n * (Py_ssize_t)sizeof(int64_t));
    if (!buf) {
        return NULL;
    }
    int64_t *at = (int64_t *)PyBytes_AS_STRING(buf);
    for (size_t i = 0; i < m->cap; i++) {
        const MapSlot *slot = &m->slots[i];
        if (slot->key == MAP_EMPTY) {
            continue;
        }
        Py_ssize_t idx = (Py_ssize_t)slot->a;
        int32_t cnt = p->cnt[idx];
        *at++ = slot->key;
        *at++ = cnt;
        for (int32_t j = 0; j < cnt; j++) {
            *at++ =
                p->vals[idx * p->horizon + (p->head[idx] + j) % p->horizon];
        }
    }
    return buf;
}

/* The MSHR occupancy ring, oldest first: completions are increasing
 * (one serializing bus), so this is the heap's contents sorted. */
static PyObject *
emit_occupancy(const DRing *r)
{
    PyObject *list = PyList_New(r->n);
    if (!list) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < r->n; i++) {
        PyObject *o = PyFloat_FromDouble(r->a[(r->head + i) & (r->cap - 1)]);
        if (!o) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, o);
    }
    return list;
}

static PyObject *
emit_win_pending(const WRing *r)
{
    PyObject *list = PyList_New(r->n);
    if (!list) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < r->n; i++) {
        const WinEntry *e = &r->a[(r->head + i) & (r->cap - 1)];
        PyObject *t = Py_BuildValue("(Ld)", (long long)e->index, e->frontier);
        if (!t) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, t);
    }
    return list;
}

static PyObject *
emit_int_array(const int64_t *a, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    if (!list) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *o = PyLong_FromLongLong(a[i]);
        if (!o) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, o);
    }
    return list;
}

static PyObject *
emit_dbl_array(const double *a, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    if (!list) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *o = PyFloat_FromDouble(a[i]);
        if (!o) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, o);
    }
    return list;
}

static PyObject *
emit_pol_fills(const Sim *s)
{
    PyObject *list = PyList_New(s->n_pols);
    if (!list) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < s->n_pols; i++) {
        PyObject *o = PyLong_FromLongLong(s->pols[i].fills);
        if (!o) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, o);
    }
    return list;
}

/* (start_instr, end_instr, start_cycle, end_cycle, misses, cost_q_sum,
 * cost_count) per phase; the last one is still open. */
static PyObject *
emit_phases(const Sim *s)
{
    PyObject *list = PyList_New(s->n_phases);
    if (!list) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < s->n_phases; i++) {
        const Phase *ph = &s->phases[i];
        PyObject *t = Py_BuildValue(
            "(LLddLLL)", (long long)ph->start_instr, (long long)ph->end_instr,
            ph->start_cycle, ph->end_cycle, (long long)ph->misses,
            (long long)ph->cost_q_sum, (long long)ph->cost_count);
        if (!t) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, t);
    }
    return list;
}

/* The prefetcher's regions, oldest first, as flat int64 rows
 * (region, last block, stride, confidence). */
static PyObject *
emit_pf_table(const Pf *pf)
{
    PyObject *buf = PyBytes_FromStringAndSize(
        NULL, (Py_ssize_t)pf->n * 4 * (Py_ssize_t)sizeof(int64_t));
    if (!buf) {
        return NULL;
    }
    int64_t *at = (int64_t *)PyBytes_AS_STRING(buf);
    for (int32_t i = 0; i < pf->n; i++) {
        int32_t row = (pf->head + i) % pf->cap;
        *at++ = pf->region[row];
        *at++ = pf->last[row];
        *at++ = pf->stride[row];
        *at++ = pf->conf[row];
    }
    return buf;
}

/* MSHRFile._in_flight after the drain, as (block, issue, complete) per
 * entry: only prefetches, which no sweep removes, can be left (a
 * demand entry would show a NaN issue). */
static PyObject *
emit_in_flight(Sim *s)
{
    const Ids *t = &s->ids;
    PyObject *list = PyList_New(0);
    if (!list || !t->in_flight) {
        return list;
    }
    for (int32_t id = 0; id < t->n; id++) {
        if (t->fill_serial[id] < 0) {
            continue;
        }
        MapSlot *issue = s->pf.on ? map_get(&s->pf.issue, id) : NULL;
        PyObject *e = Py_BuildValue("(Ldd)", (long long)t->block[id],
                                    issue ? issue->b : NAN,
                                    t->fill_done[id]);
        if (!e || PyList_Append(list, e) < 0) {
            Py_XDECREF(e);
            Py_DECREF(list);
            return NULL;
        }
        Py_DECREF(e);
    }
    return list;
}

static void
sim_free(Sim *s)
{
    free(s->wp.a);
    free(s->sb.a);
    tags_free(&s->l1d);
    tags_free(&s->l1i);
    tags_free(&s->l2);
    tags_free(&s->atd_lru);
    tags_free(&s->atd_lin);
    ids_free(&s->ids);
    free(s->md.a);
    free(s->occ.a);
    free(s->mif.a);
    free(s->bank_free);
    map_free(&s->ehc_last);
    map_free(&s->ehc_intervals);
    ivpool_free(&s->ehc_pool);
    map_free(&s->awrp_counts);
    free(s->psel_val);
    free(s->psel_incs);
    free(s->psel_decs);
    free(s->psel_inc_calls);
    free(s->psel_dec_calls);
    free(s->pols);
    free(s->plru_bits);
    free(s->epoch_starts);
    free(s->epoch_roles);
    free(s->t_scores);
    free(s->t_accesses);
    free(s->t_charges);
    free(s->phases);
    pf_free(&s->pf);
    free(s->cost_order);
}

/* ---------------------------------------------------------------- */
/* Sampling profiler (the REPRO_PROFILE build only)                  */
/* ---------------------------------------------------------------- */

/* `make native-profile` compiles with -DREPRO_PROFILE.  replay() then
 * arms ITIMER_PROF on its own process around the loop, each SIGPROF
 * records the interrupted instruction pointer, and the samples come
 * back as out["profile_ips"] (native-endian uint64 bytes) for
 * tools/kernel_ab.py --profile to map to functions.  Sampling adds
 * nothing to the loop itself, unlike per-section cycle counters. */
#ifdef REPRO_PROFILE
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#if defined(__x86_64__)
#define PROF_IP(uc) ((uint64_t)(uc)->uc_mcontext.gregs[REG_RIP])
#elif defined(__aarch64__)
#define PROF_IP(uc) ((uint64_t)(uc)->uc_mcontext.pc)
#else
#error "REPRO_PROFILE needs x86-64 or AArch64 Linux"
#endif

/* Sampling period, and the most samples one replay keeps. */
#define PROF_PERIOD_US 200
#define PROF_MAX 65536

static uint64_t prof_ips[PROF_MAX];
static volatile sig_atomic_t prof_n;

static void
prof_on_signal(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    if (prof_n < PROF_MAX) {
        prof_ips[prof_n] = PROF_IP((ucontext_t *)context);
        prof_n = prof_n + 1;
    }
}

typedef struct {
    struct sigaction old_action;
    struct itimerval old_timer;
} ProfState;

static void
prof_start(ProfState *state)
{
    struct sigaction action;
    memset(&action, 0, sizeof(action));
    action.sa_sigaction = prof_on_signal;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    prof_n = 0;
    sigaction(SIGPROF, &action, &state->old_action);
    struct itimerval timer = {{0, PROF_PERIOD_US}, {0, PROF_PERIOD_US}};
    setitimer(ITIMER_PROF, &timer, &state->old_timer);
}

static void
prof_stop(ProfState *state)
{
    setitimer(ITIMER_PROF, &state->old_timer, NULL);
    sigaction(SIGPROF, &state->old_action, NULL);
}

static int
prof_emit(PyObject *out)
{
    PyObject *ips = PyBytes_FromStringAndSize(
        (const char *)prof_ips, (Py_ssize_t)prof_n * sizeof(uint64_t));
    if (!ips || PyDict_SetItemString(out, "profile_ips", ips) < 0) {
        Py_XDECREF(ips);
        return -1;
    }
    Py_DECREF(ips);
    return 0;
}
#endif

/* ---------------------------------------------------------------- */
/* Entry point                                                       */
/* ---------------------------------------------------------------- */

/* Seconds on the monotonic clock, for the kernel and emit stage
 * timers. */
static double
monotonic_s(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* Whether every record is one the generic loop accepts: non-negative
 * address and gap, a load, store or ifetch.  One pass without an early
 * exit, which the compiler vectorizes. */
static int
records_valid(const Sim *s, int64_t load_kind)
{
    const int64_t *addrs = s->addrs, *gaps = s->gaps;
    const int8_t *kinds = s->kinds;
    const int8_t load = (int8_t)load_kind, store = (int8_t)s->store_kind,
                 ifetch = (int8_t)s->ifetch_kind;
    if (load != load_kind || store != s->store_kind ||
        ifetch != s->ifetch_kind) {
        return 0;
    }
    int64_t sign = 0;
    int8_t bad_kind = 0;
    for (Py_ssize_t i = 0; i < s->n; i++) {
        sign |= addrs[i] | gaps[i];
        bad_kind |= (kinds[i] != load) & (kinds[i] != store) &
                    (kinds[i] != ifetch);
    }
    return sign >= 0 && !bad_kind;
}

static PyObject *
replay(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *params;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &params)) {
        return NULL;
    }

    Sim sim;
    Sim *s = &sim;
    memset(s, 0, sizeof(Sim));

    P p = {params, 0};
    Py_buffer addr_buf = {0}, kind_buf = {0}, gap_buf = {0};
    PyObject *out = NULL;
    int bufs_ok = 0;

    /* --- trace buffers --- */
    PyObject *addrs_o = p_item(&p, "addresses");
    PyObject *kinds_o = p_item(&p, "kinds");
    PyObject *gaps_o = p_item(&p, "gaps");
    if (p.err) {
        return NULL;
    }
    if (PyObject_GetBuffer(addrs_o, &addr_buf, PyBUF_CONTIG_RO) < 0 ||
        PyObject_GetBuffer(kinds_o, &kind_buf, PyBUF_CONTIG_RO) < 0 ||
        PyObject_GetBuffer(gaps_o, &gap_buf, PyBUF_CONTIG_RO) < 0) {
        goto fail;
    }
    bufs_ok = 1;
    s->n = addr_buf.len / (Py_ssize_t)sizeof(int64_t);
    if (gap_buf.len != addr_buf.len || kind_buf.len != s->n) {
        PyErr_SetString(PyExc_ValueError,
                        "replay kernel: trace column length mismatch");
        goto fail;
    }
    s->addrs = (const int64_t *)addr_buf.buf;
    s->kinds = (const int8_t *)kind_buf.buf;
    s->gaps = (const int64_t *)gap_buf.buf;
    s->block_bits = p_int(&p, "block_bits");
    int64_t load_kind = p_int(&p, "load_kind");
    s->ifetch_kind = p_int(&p, "ifetch_kind");
    s->store_kind = p_int(&p, "store_kind");

    /* --- window --- */
    s->win_width = p_int(&p, "win_width");
    s->win_size = p_int(&p, "win_size");
    s->win_index = p_int(&p, "win_index");
    s->win_time = p_dbl(&p, "win_time");
    s->retire_cummax = p_dbl(&p, "retire_cummax");
    s->final_completion = p_dbl(&p, "final_completion");
    s->stall_cycles = p_dbl(&p, "stall_cycles");
    s->stall_events = p_int(&p, "stall_events");
    s->long_stalls = p_int(&p, "long_stalls");
    s->long_stall_threshold = p_dbl(&p, "long_stall_threshold");

    /* --- store buffer --- */
    s->sb_capacity = p_int(&p, "sb_capacity");
    s->sb_full_stalls = p_int(&p, "sb_full_stalls");

    /* --- caches --- */
    int64_t l1d_sets = p_int(&p, "l1d_n_sets");
    int64_t l1d_assoc = p_int(&p, "l1d_assoc");
    int64_t l1i_sets = p_int(&p, "l1i_n_sets");
    int64_t l1i_assoc = p_int(&p, "l1i_assoc");
    int64_t l2_sets = p_int(&p, "l2_n_sets");
    int64_t l2_assoc = p_int(&p, "l2_assoc");
    s->l1d_latency = p_dbl(&p, "l1d_latency");
    s->l1i_latency = p_dbl(&p, "l1i_latency");
    s->l2_latency = p_dbl(&p, "l2_latency");
    s->l1d_seq = p_int(&p, "l1d_seq");
    s->l1d_accesses = p_int(&p, "l1d_accesses");
    s->l1d_hits = p_int(&p, "l1d_hits");
    s->l1d_misses = p_int(&p, "l1d_misses");
    s->l1d_writebacks = p_int(&p, "l1d_writebacks");
    s->l1d_evictions = p_int(&p, "l1d_evictions");
    s->l1i_seq = p_int(&p, "l1i_seq");
    s->l1i_accesses = p_int(&p, "l1i_accesses");
    s->l1i_hits = p_int(&p, "l1i_hits");
    s->l1i_misses = p_int(&p, "l1i_misses");
    s->l1i_writebacks = p_int(&p, "l1i_writebacks");
    s->l1i_evictions = p_int(&p, "l1i_evictions");
    s->l2_seq = p_int(&p, "l2_seq");
    s->l2_accesses = p_int(&p, "l2_accesses");
    s->l2_hits = p_int(&p, "l2_hits");
    s->l2_misses = p_int(&p, "l2_misses");
    s->l2_writebacks = p_int(&p, "l2_writebacks");
    s->l2_evictions = p_int(&p, "l2_evictions");
    s->l2_compulsory = p_int(&p, "l2_compulsory");
    s->track_seen = (int)p_int(&p, "track_seen");
    s->demand_ctr = p_int(&p, "demand_ctr");
    s->compulsory_ctr = p_int(&p, "compulsory_ctr");

    /* --- mshr --- */
    s->m_entries = p_int(&p, "m_entries");
    s->n_adders = p_int(&p, "n_adders");
    s->m_now = p_dbl(&p, "m_now");
    s->m_acc = p_dbl(&p, "m_acc");
    s->m_allocations = p_int(&p, "m_allocations");
    s->m_merges = p_int(&p, "m_merges");
    s->m_full_stalls = p_int(&p, "m_full_stalls");
    s->m_peak = p_int(&p, "m_peak");

    /* --- memory --- */
    s->memory_max = p_int(&p, "memory_max");
    s->mem_requests = p_int(&p, "mem_requests");
    s->mem_writebacks = p_int(&p, "mem_writebacks");
    s->mem_queueing = p_int(&p, "mem_queueing");
    s->mem_peak = p_int(&p, "mem_peak");
    s->bus_occupancy = p_dbl(&p, "bus_occupancy");
    s->bus_transfer_delay = p_dbl(&p, "bus_transfer_delay");
    s->bus_free = p_dbl(&p, "bus_free");
    s->bus_contended = p_int(&p, "bus_contended");
    s->bus_transfers = p_int(&p, "bus_transfers");
    s->bank_latency = p_dbl(&p, "bank_latency");
    s->bank_conflicts = p_int(&p, "bank_conflicts");
    s->bank_accesses = p_int(&p, "bank_accesses");

    /* --- cost + delta --- */
    s->qstep = p_dbl(&p, "qstep");
    s->max_q = p_int(&p, "max_q");
    s->dist_total = p_int(&p, "dist_total");
    s->dist_cost_sum = p_dbl(&p, "dist_cost_sum");
    s->delta_count = p_int(&p, "delta_count");
    s->delta_sum = p_dbl(&p, "delta_sum");
    s->delta_below = p_int(&p, "delta_below");
    s->delta_mid = p_int(&p, "delta_mid");
    s->delta_high = p_int(&p, "delta_high");

    /* --- policy --- */
    s->ehc_horizon = p_int(&p, "ehc_horizon");
    s->ehc_pending = p_int(&p, "ehc_pending");
    s->never = p_int(&p, "ehc_never");
    s->awrp_weight = p_dbl(&p, "awrp_weight");
    s->awrp_fills = p_int(&p, "awrp_fills");

    /* --- controller --- */
    s->controller_kind = p_int(&p, "controller_kind");
    s->atd_assoc = p_int(&p, "atd_assoc");
    s->atd_seq = p_int(&p, "atd_seq");
    s->atd_accesses = p_int(&p, "atd_accesses");
    s->atd_hits = p_int(&p, "atd_hits");
    s->atd_misses = p_int(&p, "atd_misses");
    s->atd2_seq = p_int(&p, "atd2_seq");
    s->atd2_accesses = p_int(&p, "atd2_accesses");
    s->atd2_hits = p_int(&p, "atd2_hits");
    s->atd2_misses = p_int(&p, "atd2_misses");
    s->cbs_local = (int)p_int(&p, "cbs_local");
    s->psel_max = p_int(&p, "psel_max");
    s->psel_msb = p_int(&p, "psel_msb");
    s->deferred = p_int(&p, "deferred");
    s->follower_lin = p_int(&p, "follower_lin");
    s->follower_lru = p_int(&p, "follower_lru");
    s->t_decay = p_dbl(&p, "t_decay");
    s->phase_interval = p_int(&p, "phase_interval");
    s->pf.predictions = p_int(&p, "pf_predictions");
    s->pf.trainings = p_int(&p, "pf_trainings");
    s->pf.issued = p_int(&p, "pf_issued");
    s->pf.suppressed = p_int(&p, "pf_suppressed");

    if (p.err) {
        goto fail;
    }

    /* --- sizes and capacities: each divides or bounds an array --- */
    {
        int uses_atd = s->controller_kind == CTRL_SBAR ||
                       s->controller_kind == CTRL_CBS;
        const struct {
            const char *name;
            int64_t value, max;
        } sizes[] = {
            {"l1d_n_sets", l1d_sets, INT32_MAX},
            {"l1d_assoc", l1d_assoc, INT32_MAX},
            {"l1i_n_sets", l1i_sets, INT32_MAX},
            {"l1i_assoc", l1i_assoc, INT32_MAX},
            {"l2_n_sets", l2_sets, INT32_MAX},
            {"l2_assoc", l2_assoc, INT32_MAX},
            {"atd_assoc", uses_atd ? s->atd_assoc : 1, INT32_MAX},
            {"win_width", s->win_width, INT64_MAX},
            {"win_size", s->win_size, INT64_MAX},
            {"sb_capacity", s->sb_capacity, INT64_MAX},
            {"m_entries", s->m_entries, INT64_MAX},
            {"memory_max", s->memory_max, INT64_MAX},
            /* shifts and the 64-entry cost histogram */
            {"block_bits + 1", s->block_bits + 1, 64},
            {"max_q + 1", s->max_q + 1, 64},
        };
        for (size_t i = 0; i < sizeof(sizes) / sizeof(sizes[0]); i++) {
            if (sizes[i].value < 1 || sizes[i].value > sizes[i].max) {
                PyErr_Format(PyExc_ValueError,
                             "replay kernel: %s must be in 1..%lld, got %lld",
                             sizes[i].name, (long long)sizes[i].max,
                             (long long)sizes[i].value);
                goto fail;
            }
        }
        if (!(s->qstep > 0.0) || s->n_adders < 0 || s->win_index < 0) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: qstep must be positive, "
                            "n_adders and win_index non-negative");
            goto fail;
        }
    }
    if (!records_valid(s, load_kind)) {
        PyErr_SetString(PyExc_ValueError,
                        "replay kernel: a record has a negative address or "
                        "gap, or an unknown kind");
        goto fail;
    }

    /* --- list / bytes params --- */
    {
        Py_ssize_t nb = 0;
        s->bank_free = p_dbl_list(&p, "bank_free", &nb);
        if (p.err) {
            goto fail;
        }
        if (nb < 1) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: bank_free must name a bank");
            goto fail;
        }
        s->n_banks = (int64_t)nb;
        s->bank_mask = pow2_mask(s->n_banks);
    }
    {
        Py_ssize_t nd = 0;
        int64_t *dist = p_int_list(&p, "dist_counts", &nd);
        if (p.err) {
            goto fail;
        }
        if (nd > 64) {
            free(dist);
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: dist_counts too long");
            goto fail;
        }
        memcpy(s->dist_counts, dist, (size_t)nd * sizeof(int64_t));
        free(dist);
    }
    {
        Py_ssize_t nb = 0, nc = 0;
        int64_t *bounds = p_int_list(&p, "occ_bounds", &nb);
        int64_t *counts = p_int_list(&p, "occ_counts", &nc);
        if (!p.err && (nb < 1 || nb > MAX_OCC_BOUNDS || nc != nb + 1)) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: occ_bounds needs 1 to 16 bounds "
                            "and occ_counts one bucket more");
            p.err = 1;
        }
        if (!p.err) {
            memcpy(s->occ_bounds, bounds, (size_t)nb * sizeof(int64_t));
            memcpy(s->occ_counts, counts, (size_t)nc * sizeof(int64_t));
            s->n_occ_bounds = nb;
        }
        free(bounds);
        free(counts);
        if (p.err) {
            goto fail;
        }
    }
    {
        Py_ssize_t np_ = 0, ni = 0, ndc = 0, nic = 0, ndcc = 0;
        s->psel_val = p_int_list(&p, "psel_values", &np_);
        s->psel_incs = p_int_list(&p, "psel_incs", &ni);
        s->psel_decs = p_int_list(&p, "psel_decs", &ndc);
        s->psel_inc_calls = p_int_list(&p, "psel_inc_calls", &nic);
        s->psel_dec_calls = p_int_list(&p, "psel_dec_calls", &ndcc);
        if (p.err) {
            goto fail;
        }
        if (ni != np_ || ndc != np_ || nic != np_ || ndcc != np_) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: psel array length mismatch");
            goto fail;
        }
        s->n_psels = np_;
    }
    {
        PyObject *pols = p_item(&p, "policies");
        if (p.err) {
            goto fail;
        }
        if (!PyList_Check(pols) || PyList_GET_SIZE(pols) < 1) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: policies must be a non-empty "
                            "list");
            goto fail;
        }
        s->n_pols = PyList_GET_SIZE(pols);
        s->pols = (Pol *)calloc((size_t)s->n_pols, sizeof(Pol));
        if (!s->pols) {
            PyErr_NoMemory();
            goto fail;
        }
        for (Py_ssize_t i = 0; i < s->n_pols; i++) {
            Pol *pol = &s->pols[i];
            long long kind, lam, period, fills, threshold, rejects;
            if (!PyTuple_Check(PyList_GET_ITEM(pols, i))) {
                PyErr_SetString(PyExc_TypeError,
                                "replay kernel: policies must hold tuples");
                goto fail;
            }
            if (!PyArg_ParseTuple(PyList_GET_ITEM(pols, i), "LLLLLL", &kind,
                                  &lam, &period, &fills, &threshold,
                                  &rejects)) {
                goto fail;
            }
            if (kind < POL_LRU || kind > POL_COST_PLRU ||
                (kind == POL_BIP && period < 1)) {
                PyErr_SetString(PyExc_ValueError,
                                "replay kernel: bad policy tuple");
                goto fail;
            }
            pol->kind = kind;
            pol->lam = lam;
            pol->period = period;
            pol->fills = fills;
            pol->threshold = threshold;
            pol->max_rejects = rejects;
        }
    }
    {
        Py_ssize_t ns = 0, na = 0, nch = 0;
        s->t_scores = p_dbl_list(&p, "t_scores", &ns);
        s->t_accesses = p_dbl_list(&p, "t_accesses", &na);
        s->t_charges = p_int_list(&p, "t_charges", &nch);
        if (p.err) {
            goto fail;
        }
        if (s->controller_kind == CTRL_TOURNAMENT &&
            (ns != s->n_pols || na != s->n_pols || nch != s->n_pols)) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: tournament score length mismatch");
            goto fail;
        }
    }
    {
        PyObject *roles = p_item(&p, "roles");
        if (p.err) {
            goto fail;
        }
        if (roles != Py_None) {
            if (!PyBytes_Check(roles) ||
                PyBytes_GET_SIZE(roles) != (Py_ssize_t)l2_sets) {
                PyErr_SetString(PyExc_ValueError,
                                "replay kernel: roles must be one byte per "
                                "set");
                goto fail;
            }
            /* borrowed: the params dict keeps it alive for the call */
            s->roles = (const uint8_t *)PyBytes_AS_STRING(roles);
        }
    }
    {
        Py_ssize_t ne = 0;
        s->epoch_starts = p_int_list(&p, "epoch_starts", &ne);
        PyObject *maps = p_item(&p, "epoch_roles");
        if (p.err) {
            goto fail;
        }
        if (!PyList_Check(maps) || PyList_GET_SIZE(maps) != ne) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: epoch_roles length mismatch");
            goto fail;
        }
        s->n_epochs = ne;
        s->epoch_roles = (const uint8_t **)malloc(
            (size_t)(ne ? ne : 1) * sizeof(uint8_t *));
        if (!s->epoch_roles) {
            PyErr_NoMemory();
            goto fail;
        }
        for (Py_ssize_t i = 0; i < ne; i++) {
            PyObject *map = PyList_GET_ITEM(maps, i);
            if (!PyBytes_Check(map) ||
                PyBytes_GET_SIZE(map) != (Py_ssize_t)l2_sets) {
                PyErr_SetString(PyExc_ValueError,
                                "replay kernel: epoch map must be one byte "
                                "per set");
                goto fail;
            }
            s->epoch_roles[i] = (const uint8_t *)PyBytes_AS_STRING(map);
        }
    }
    {
        /* every role must name a policy the controller owns */
        int needs_roles = s->controller_kind == CTRL_SBAR ||
                          s->controller_kind == CTRL_DIP ||
                          s->controller_kind == CTRL_TOURNAMENT;
        int64_t max_role = s->controller_kind == CTRL_SBAR ? 1
                           : s->controller_kind == CTRL_DIP ? 2
                           : (int64_t)s->n_pols;
        int64_t min_pols = s->controller_kind == CTRL_NONE ? 1 : 2;
        int uses_psel = s->controller_kind != CTRL_NONE &&
                        s->controller_kind != CTRL_TOURNAMENT;
        int ok = s->n_pols >= min_pols && (!needs_roles || s->roles) &&
                 (!uses_psel ||
                  s->n_psels >= (s->cbs_local ? (Py_ssize_t)l2_sets : 1)) &&
                 (s->n_epochs == 0 || s->controller_kind == CTRL_SBAR) &&
                 (s->controller_kind != CTRL_CBS ||
                  s->pols[0].kind == POL_LIN);
        for (Py_ssize_t e = -1; ok && needs_roles && e < s->n_epochs; e++) {
            const uint8_t *map = e < 0 ? s->roles : s->epoch_roles[e];
            for (int64_t i = 0; i < l2_sets; i++) {
                if (map[i] > max_role) {
                    ok = 0;
                    break;
                }
            }
        }
        if (!ok) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: controller shape mismatch");
            goto fail;
        }
    }
    if (s->phase_interval < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "replay kernel: negative phase interval");
        goto fail;
    }
    {
        /* (n_entries, region_blocks, degree, confidence_threshold) */
        PyObject *pf = p_item(&p, "prefetcher");
        if (p.err) {
            goto fail;
        }
        if (pf != Py_None) {
            long long entries, region_blocks, degree, threshold;
            if (!PyTuple_Check(pf)) {
                PyErr_SetString(PyExc_TypeError,
                                "replay kernel: prefetcher must be a tuple "
                                "or None");
                goto fail;
            }
            if (!PyArg_ParseTuple(pf, "LLLL", &entries, &region_blocks,
                                  &degree, &threshold)) {
                if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
                    PyErr_SetString(PyExc_ValueError,
                                    "replay kernel: prefetcher param past "
                                    "int64");
                }
                goto fail;
            }
            if (entries < 1 || region_blocks < 1 || degree < 1) {
                PyErr_SetString(PyExc_ValueError,
                                "replay kernel: prefetcher entries, region "
                                "and degree must be positive");
                goto fail;
            }
            s->pf.on = 1;
            s->pf.n_entries = entries;
            s->pf.region_blocks = region_blocks;
            s->pf.degree = degree;
            s->pf.threshold = threshold;
        }
    }

    /* --- containers --- */
    if (tags_init(&s->l1d, l1d_sets, l1d_assoc) < 0 ||
        tags_init(&s->l1i, l1i_sets, l1i_assoc) < 0 ||
        tags_init(&s->l2, l2_sets, l2_assoc) < 0 ||
        ids_init(&s->ids) < 0 ||
        map_init(&s->ehc_last, 1024) < 0 ||
        map_init(&s->ehc_intervals, 1024) < 0 ||
        map_init(&s->awrp_counts, 1024) < 0) {
        PyErr_NoMemory();
        goto fail;
    }
    ivpool_init(&s->ehc_pool, s->ehc_horizon);
    if (s->controller_kind == CTRL_SBAR || s->controller_kind == CTRL_CBS) {
        if (tags_init(&s->atd_lru, l2_sets, s->atd_assoc) < 0) {
            PyErr_NoMemory();
            goto fail;
        }
    }
    if (s->controller_kind == CTRL_CBS) {
        if (tags_init(&s->atd_lin, l2_sets, s->atd_assoc) < 0) {
            PyErr_NoMemory();
            goto fail;
        }
    }
    for (Py_ssize_t i = 0; i < s->n_pols; i++) {
        if (s->pols[i].kind != POL_PLRU && s->pols[i].kind != POL_COST_PLRU) {
            continue;
        }
        if (l2_assoc < 1 || (l2_assoc & (l2_assoc - 1))) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: tree-PLRU needs a power-of-two "
                            "associativity");
            goto fail;
        }
        s->plru_bits =
            (uint8_t *)calloc((size_t)(l2_sets * (l2_assoc - 1) + 1), 1);
        if (!s->plru_bits) {
            PyErr_NoMemory();
            goto fail;
        }
        break;
    }
    if (s->pf.on && pf_init(&s->pf, s->n) < 0) {
        PyErr_NoMemory();
        goto fail;
    }
    if (s->phase_interval) {
        phase_open(s, 0, 0.0);
        if (s->oom) {
            PyErr_NoMemory();
            goto fail;
        }
    }

    /* --- run --- */
    double loop_start = monotonic_s();
#ifdef REPRO_PROFILE
    ProfState prof;
    prof_start(&prof);
#endif
    Py_BEGIN_ALLOW_THREADS;
    run_loop(s);
    Py_END_ALLOW_THREADS;
#ifdef REPRO_PROFILE
    prof_stop(&prof);
#endif
    double emit_start = monotonic_s();

    if (s->overflow) {
        PyErr_Format(PyExc_OverflowError, "replay kernel: %s", s->overflow);
        goto fail;
    }
    if (s->oom) {
        PyErr_NoMemory();
        goto fail;
    }

    /* --- emit --- */
    out = PyDict_New();
    if (!out) {
        goto fail;
    }
    if (/* window */
        out_int(out, "win_index", s->win_index) < 0 ||
        out_dbl(out, "win_time", s->win_time) < 0 ||
        out_dbl(out, "retire_cummax", s->retire_cummax) < 0 ||
        out_dbl(out, "final_completion", s->final_completion) < 0 ||
        out_dbl(out, "stall_cycles", s->stall_cycles) < 0 ||
        out_int(out, "stall_events", s->stall_events) < 0 ||
        out_int(out, "long_stalls", s->long_stalls) < 0 ||
        out_obj(out, "win_pending", emit_win_pending(&s->wp)) < 0 ||
        /* store buffer */
        out_int(out, "sb_full_stalls", s->sb_full_stalls) < 0 ||
        out_obj(out, "sb_completions", emit_heap_sorted(&s->sb)) < 0 ||
        /* caches */
        out_int(out, "l1d_seq", s->l1d_seq) < 0 ||
        out_int(out, "l1d_accesses", s->l1d_accesses) < 0 ||
        out_int(out, "l1d_hits", s->l1d_hits) < 0 ||
        out_int(out, "l1d_misses", s->l1d_misses) < 0 ||
        out_int(out, "l1d_writebacks", s->l1d_writebacks) < 0 ||
        out_int(out, "l1d_evictions", s->l1d_evictions) < 0 ||
        out_obj(out, "l1d_sets", emit_tags(&s->l1d)) < 0 ||
        out_int(out, "l1i_seq", s->l1i_seq) < 0 ||
        out_int(out, "l1i_accesses", s->l1i_accesses) < 0 ||
        out_int(out, "l1i_hits", s->l1i_hits) < 0 ||
        out_int(out, "l1i_misses", s->l1i_misses) < 0 ||
        out_int(out, "l1i_writebacks", s->l1i_writebacks) < 0 ||
        out_int(out, "l1i_evictions", s->l1i_evictions) < 0 ||
        out_obj(out, "l1i_sets", emit_tags(&s->l1i)) < 0 ||
        out_int(out, "l2_seq", s->l2_seq) < 0 ||
        out_int(out, "l2_accesses", s->l2_accesses) < 0 ||
        out_int(out, "l2_hits", s->l2_hits) < 0 ||
        out_int(out, "l2_misses", s->l2_misses) < 0 ||
        out_int(out, "l2_writebacks", s->l2_writebacks) < 0 ||
        out_int(out, "l2_evictions", s->l2_evictions) < 0 ||
        out_int(out, "l2_compulsory", s->l2_compulsory) < 0 ||
        out_obj(out, "l2_sets", emit_tags(&s->l2)) < 0 ||
        out_obj(out, "id_blocks",
                emit_raw(s->ids.block, s->ids.n, sizeof(int64_t))) < 0 ||
        out_obj(out, "id_costs",
                emit_raw(s->ids.cost, s->ids.n, sizeof(double))) < 0 ||
        out_int(out, "demand_ctr", s->demand_ctr) < 0 ||
        out_int(out, "compulsory_ctr", s->compulsory_ctr) < 0 ||
        /* mshr */
        out_dbl(out, "m_now", s->m_now) < 0 ||
        out_dbl(out, "m_acc", s->m_acc) < 0 ||
        out_int(out, "m_live", s->m_live) < 0 ||
        out_obj(out, "m_in_flight", emit_in_flight(s)) < 0 ||
        out_obj(out, "m_occupancy", emit_occupancy(&s->occ)) < 0 ||
        out_int(out, "m_allocations", s->m_allocations) < 0 ||
        out_int(out, "m_merges", s->m_merges) < 0 ||
        out_int(out, "m_full_stalls", s->m_full_stalls) < 0 ||
        out_int(out, "m_peak", s->m_peak) < 0 ||
        out_obj(out, "occ_counts",
                emit_int_array(s->occ_counts, s->n_occ_bounds + 1)) < 0 ||
        /* memory */
        out_int(out, "mem_requests", s->mem_requests) < 0 ||
        out_int(out, "mem_writebacks", s->mem_writebacks) < 0 ||
        out_int(out, "mem_queueing", s->mem_queueing) < 0 ||
        out_int(out, "mem_peak", s->mem_peak) < 0 ||
        out_obj(out, "mem_in_flight", emit_heap_sorted(&s->mif)) < 0 ||
        out_dbl(out, "bus_free", s->bus_free) < 0 ||
        out_int(out, "bus_contended", s->bus_contended) < 0 ||
        out_int(out, "bus_transfers", s->bus_transfers) < 0 ||
        out_obj(out, "bank_free",
                emit_dbl_array(s->bank_free, (Py_ssize_t)s->n_banks)) < 0 ||
        out_int(out, "bank_conflicts", s->bank_conflicts) < 0 ||
        out_int(out, "bank_accesses", s->bank_accesses) < 0 ||
        /* cost + delta */
        out_obj(out, "dist_counts",
                emit_int_array(s->dist_counts, (Py_ssize_t)(s->max_q + 1)))
            < 0 ||
        out_int(out, "dist_total", s->dist_total) < 0 ||
        out_dbl(out, "dist_cost_sum", s->dist_cost_sum) < 0 ||
        out_int(out, "delta_count", s->delta_count) < 0 ||
        out_dbl(out, "delta_sum", s->delta_sum) < 0 ||
        out_int(out, "delta_below", s->delta_below) < 0 ||
        out_int(out, "delta_mid", s->delta_mid) < 0 ||
        out_int(out, "delta_high", s->delta_high) < 0 ||
        /* policy */
        out_int(out, "ehc_pending", s->ehc_pending) < 0 ||
        out_obj(out, "ehc_last", emit_pairs(&s->ehc_last)) < 0 ||
        out_obj(out, "ehc_intervals",
                emit_intervals(&s->ehc_intervals, &s->ehc_pool)) < 0 ||
        out_int(out, "awrp_fills", s->awrp_fills) < 0 ||
        out_obj(out, "awrp_counts", emit_pairs(&s->awrp_counts)) < 0 ||
        /* controller */
        out_int(out, "atd_seq", s->atd_seq) < 0 ||
        out_int(out, "atd_accesses", s->atd_accesses) < 0 ||
        out_int(out, "atd_hits", s->atd_hits) < 0 ||
        out_int(out, "atd_misses", s->atd_misses) < 0 ||
        out_int(out, "atd2_seq", s->atd2_seq) < 0 ||
        out_int(out, "atd2_accesses", s->atd2_accesses) < 0 ||
        out_int(out, "atd2_hits", s->atd2_hits) < 0 ||
        out_int(out, "atd2_misses", s->atd2_misses) < 0 ||
        out_obj(out, "psel_values",
                emit_int_array(s->psel_val, s->n_psels)) < 0 ||
        out_obj(out, "psel_incs",
                emit_int_array(s->psel_incs, s->n_psels)) < 0 ||
        out_obj(out, "psel_decs",
                emit_int_array(s->psel_decs, s->n_psels)) < 0 ||
        out_obj(out, "psel_inc_calls",
                emit_int_array(s->psel_inc_calls, s->n_psels)) < 0 ||
        out_obj(out, "psel_dec_calls",
                emit_int_array(s->psel_dec_calls, s->n_psels)) < 0 ||
        out_int(out, "deferred", s->deferred) < 0 ||
        out_int(out, "follower_lin", s->follower_lin) < 0 ||
        out_int(out, "follower_lru", s->follower_lru) < 0 ||
        out_obj(out, "pol_fills", emit_pol_fills(s)) < 0 ||
        out_obj(out, "t_scores",
                emit_dbl_array(s->t_scores,
                               s->controller_kind == CTRL_TOURNAMENT
                                   ? s->n_pols : 0)) < 0 ||
        out_obj(out, "t_accesses",
                emit_dbl_array(s->t_accesses,
                               s->controller_kind == CTRL_TOURNAMENT
                                   ? s->n_pols : 0)) < 0 ||
        out_obj(out, "t_charges",
                emit_int_array(s->t_charges,
                               s->controller_kind == CTRL_TOURNAMENT
                                   ? s->n_pols : 0)) < 0 ||
        out_obj(out, "phases", emit_phases(s)) < 0) {
        goto fail;
    }
    if (s->plru_bits &&
        out_obj(out, "plru_bits",
                PyBytes_FromStringAndSize(
                    (const char *)s->plru_bits,
                    (Py_ssize_t)(s->l2.n_sets * (s->l2.assoc - 1)))) < 0) {
        goto fail;
    }
    if (s->pf.on) {
        if (out_obj(out, "pf_table", emit_pf_table(&s->pf)) < 0 ||
            out_int(out, "pf_predictions", s->pf.predictions) < 0 ||
            out_int(out, "pf_trainings", s->pf.trainings) < 0 ||
            out_int(out, "pf_issued", s->pf.issued) < 0 ||
            out_int(out, "pf_suppressed", s->pf.suppressed) < 0 ||
            out_obj(out, "id_cost_order",
                    emit_raw(s->cost_order, s->n_cost_order,
                             sizeof(int32_t))) < 0) {
            goto fail;
        }
    }
    if (s->controller_kind == CTRL_SBAR) {
        if (out_obj(out, "atd_sets", emit_tags(&s->atd_lru)) < 0 ||
            out_int(out, "epochs_entered", (int64_t)s->next_epoch) < 0) {
            goto fail;
        }
    }
    else if (s->controller_kind == CTRL_CBS) {
        if (out_obj(out, "atd_sets", emit_tags(&s->atd_lru)) < 0 ||
            out_obj(out, "atd2_sets", emit_tags(&s->atd_lin)) < 0) {
            goto fail;
        }
    }
    if (out_dbl(out, "kernel_s", emit_start - loop_start) < 0 ||
        out_dbl(out, "emit_s", monotonic_s() - emit_start) < 0) {
        goto fail;
    }
#ifdef REPRO_PROFILE
    if (prof_emit(out) < 0) {
        goto fail;
    }
#endif

    sim_free(s);
    PyBuffer_Release(&addr_buf);
    PyBuffer_Release(&kind_buf);
    PyBuffer_Release(&gap_buf);
    return out;

fail:
    Py_XDECREF(out);
    sim_free(s);
    if (bufs_ok) {
        PyBuffer_Release(&addr_buf);
        PyBuffer_Release(&kind_buf);
        PyBuffer_Release(&gap_buf);
    }
    else {
        if (addr_buf.obj) {
            PyBuffer_Release(&addr_buf);
        }
        if (kind_buf.obj) {
            PyBuffer_Release(&kind_buf);
        }
        if (gap_buf.obj) {
            PyBuffer_Release(&gap_buf);
        }
    }
    return NULL;
}

/* epoch_starts(gaps, start_index, epoch_length, epoch): the instruction
 * indices at which a replay entering at start_index, in epoch `epoch`,
 * enters a new one.  Record i dispatches at start_index + sum(gaps[i'] + 1
 * for i' <= i), and the replay redraws whenever index // epoch_length
 * differs from the current epoch, so a leap over several epochs draws
 * once.  One pass, dividing only where the epoch changes. */
static PyObject *
epoch_starts(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *gaps_o;
    long long start, length, epoch;
    if (!PyArg_ParseTuple(args, "OLLL", &gaps_o, &start, &length, &epoch)) {
        return NULL;
    }
    if (length <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "epoch_starts: epoch_length must be positive");
        return NULL;
    }
    Py_buffer gap_buf;
    if (PyObject_GetBuffer(gaps_o, &gap_buf, PyBUF_CONTIG_RO) < 0) {
        return NULL;
    }
    PyObject *starts = NULL;
    if (gap_buf.len % (Py_ssize_t)sizeof(int64_t)) {
        PyErr_SetString(PyExc_ValueError,
                        "epoch_starts: gaps must be an int64 column");
        goto done;
    }
    starts = PyList_New(0);
    if (!starts) {
        goto done;
    }
    const int64_t *gaps = (const int64_t *)gap_buf.buf;
    Py_ssize_t n = gap_buf.len / (Py_ssize_t)sizeof(int64_t);
    int64_t index = start, low = epoch * length, high = low + length;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (__builtin_add_overflow(index, gaps[i], &index) ||
            __builtin_add_overflow(index, 1, &index)) {
            PyErr_SetString(PyExc_OverflowError,
                            "epoch_starts: instruction index past int64");
            Py_CLEAR(starts);
            goto done;
        }
        if (index >= low && index < high) {
            continue;
        }
        PyObject *value = PyLong_FromLongLong(index);
        if (!value || PyList_Append(starts, value) < 0) {
            Py_XDECREF(value);
            Py_CLEAR(starts);
            goto done;
        }
        Py_DECREF(value);
        epoch = index / length - (index % length < 0);
        low = epoch * length;
        high = low + length;
    }
done:
    PyBuffer_Release(&gap_buf);
    return starts;
}

/* Surrogate-trace synthesis, defined in tracegen.c. */
PyObject *tracegen_synthesize(PyObject *self, PyObject *args);

static PyMethodDef replaykernel_methods[] = {
    {"replay", replay, METH_VARARGS,
     "Run the replay loop natively over packed trace columns.\n"
     "Takes a flat params dict, returns the end-of-run state dict.\n"
     "Bit-identical to the generic Python loop by construction."},
    {"epoch_starts", epoch_starts, METH_VARARGS,
     "epoch_starts(gaps, start_index, epoch_length, epoch)\n"
     "Instruction indices at which the replay enters a new epoch\n"
     "(the rand-dynamic SBAR redraws), over an int64 gap column."},
    {"synthesize", tracegen_synthesize, METH_VARARGS,
     "synthesize(state, phases, budget, n_sets, line_bytes, gaps, kinds)\n"
     "Emit a surrogate trace's (address, kind, gap) columns as bytes,\n"
     "continuing a random.Random state; identical to the Python\n"
     "generator in repro.workloads.engine."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef replaykernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro._native.replaykernel",
    "Native (C) replay kernel: the simulator's fast path.",
    -1,
    replaykernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit_replaykernel(void)
{
    return PyModule_Create(&replaykernel_module);
}
