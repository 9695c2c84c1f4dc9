/* Helpers the replay kernel (replaykernel.c) and the offline oracle
 * (oracle.c) share: set indices, cost quantization and the
 * open-addressing hash map.  Every function is static: each
 * translation unit that includes this header compiles its own copy,
 * inlined where it is hot. */

#ifndef REPRO_NATIVE_COMMON_H
#define REPRO_NATIVE_COMMON_H

#include <stdint.h>
#include <stdlib.h>

/* Forced inline, so the hot loops compile as if these helpers were
 * written out in place. */
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

/* min(cost // qstep, max_q), as quantize_cost computes it: the largest
 * k <= max_q with k * qstep <= cost.  Exact because cost >= 0 (the
 * kernel's accumulator never decreases, the oracle divides a
 * non-negative latency): the rounded quotient can only round up
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

#endif /* REPRO_NATIVE_COMMON_H */
