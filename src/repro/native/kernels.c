/* Compiled twins of the @hot_kernel event loops (repro.native).
 *
 * One full-run stepper per heuristic family: memtree_activation_run is the
 * EventDrivenScheduler loop specialised to ActivationScheduler (Algorithm 1
 * of the paper), memtree_membooking_run the MemBookingScheduler
 * specialisation (Algorithms 2-4 / Appendix B).  Each call simulates one
 * (tree, AO, EO, processors, memory limit) instance end to end over the
 * caller's contiguous SimWorkspace planes -- no callback crosses the ABI.
 *
 * Bit-identity contract (pinned by tests/test_native.py against both the
 * Python kernels and the frozen references):
 *
 *  - every float operation is the same IEEE double add/sub/compare the
 *    Python kernels perform, in the same order (no reassociation, no FMA --
 *    build with -ffp-contract=off);
 *  - all heaps pop in exact (key, node) lexicographic order; keys are
 *    unique per heap in this engine, so the pop sequence is the sorted
 *    sequence -- identical to CPython's heapq on the same pairs;
 *  - completions of one instant are delivered in ascending node order, the
 *    free-processor stack starts as [p-1 .. 0] (pop -> processor 0 first)
 *    and freed processors are pushed back in completion order;
 *  - ledger failure (over-release beyond tolerance) aborts the run with
 *    failure code 3 and the offending value; the Python wrapper raises the
 *    exact RuntimeError the Python kernels raise.
 *
 * Diagnostics (peak_running / blocked / memory_bound / starve_min /
 * bound_need / orphans) are tracked with the exact semantics of the Python
 * event loop (repro.schedulers.engine.simulate_kernel) so the batched
 * backend's collapse decisions are identical whichever implementation
 * simulated a lane.  The schedulers ignore them.
 *
 * memtree_check_schedule is the native half of validate_schedule and
 * memory_profile (repro.schedulers.validation).  Its contract is accept or
 * defer: it returns 0 only for a schedule the numpy checks accept too, and
 * then its resident peak is bit-identical to memory_profile's.  Any other
 * result -- a violation, or an input it does not decide -- sends the caller
 * to the numpy checks, which word every report.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MEMTREE_ABI_VERSION 2
#define UNSCHEDULED (-1)
#define BBS_UNSET (-1.0)

/* Node states of the MemBooking bookkeeping (repro.schedulers.membooking). */
#define ST_UN 0
#define ST_CAND 1
#define ST_ACT 2
#define ST_RUN 3
#define ST_FN 4

/* Failure codes (stats->failure). */
#define FAIL_NONE 0
#define FAIL_T0 1
#define FAIL_DEADLOCK 2
#define FAIL_LEDGER 3

typedef struct {
    double clock;          /* last event instant (makespan when completed) */
    double peak_booked;    /* heuristic ledger peak (extras) */
    double ledger_value;   /* offending booked value when failure == 3 */
    double bound_need;     /* min ledger level a memory-bound stop needed
                              (INFINITY while never bound) */
    int64_t finished;      /* tasks completed */
    int64_t num_events;    /* t=0 event + one per completion */
    int64_t next_activation; /* Activation only: AO prefix position */
    int64_t failure;       /* FAIL_* code */
    int64_t peak_running;  /* lane diagnostics, lane-engine semantics */
    int64_t blocked;
    int64_t memory_bound;
    int64_t starve_min;
} memtree_stats;

int64_t memtree_abi_version(void) { return MEMTREE_ABI_VERSION; }

/* ------------------------------------------------------------------ */
/* (double key, node) min-heap: the completion-event queue.            */
/* ------------------------------------------------------------------ */
typedef struct {
    double *t;
    int64_t *n;
    int64_t size;
} evheap;

static void ev_push(evheap *h, double t, int64_t node) {
    int64_t i = h->size++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (h->t[p] < t || (h->t[p] == t && h->n[p] < node)) break;
        h->t[i] = h->t[p];
        h->n[i] = h->n[p];
        i = p;
    }
    h->t[i] = t;
    h->n[i] = node;
}

static int64_t ev_pop(evheap *h) {
    int64_t node = h->n[0];
    int64_t size = --h->size;
    double lt = h->t[size];
    int64_t ln = h->n[size];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= size) break;
        int64_t r = c + 1;
        if (r < size && (h->t[r] < h->t[c] || (h->t[r] == h->t[c] && h->n[r] < h->n[c]))) c = r;
        if (lt < h->t[c] || (lt == h->t[c] && ln < h->n[c])) break;
        h->t[i] = h->t[c];
        h->n[i] = h->n[c];
        i = c;
    }
    h->t[i] = lt;
    h->n[i] = ln;
    return node;
}

/* ------------------------------------------------------------------ */
/* (int64 key, node) min-heap: ready (EO rank) and CAND (AO rank).     */
/* ------------------------------------------------------------------ */
typedef struct {
    int64_t *k;
    int64_t *n;
    int64_t size;
} rkheap;

static void rk_push(rkheap *h, int64_t key, int64_t node) {
    int64_t i = h->size++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (h->k[p] < key || (h->k[p] == key && h->n[p] < node)) break;
        h->k[i] = h->k[p];
        h->n[i] = h->n[p];
        i = p;
    }
    h->k[i] = key;
    h->n[i] = node;
}

static int64_t rk_pop(rkheap *h) {
    int64_t node = h->n[0];
    int64_t size = --h->size;
    int64_t lk = h->k[size];
    int64_t ln = h->n[size];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= size) break;
        int64_t r = c + 1;
        if (r < size && (h->k[r] < h->k[c] || (h->k[r] == h->k[c] && h->n[r] < h->n[c]))) c = r;
        if (lk < h->k[c] || (lk == h->k[c] && ln < h->n[c])) break;
        h->k[i] = h->k[c];
        h->n[i] = h->n[c];
        i = c;
    }
    h->k[i] = lk;
    h->n[i] = ln;
    return node;
}

/* ------------------------------------------------------------------ */
/* Shared engine state: dispatch + diagnostics (lane-engine semantics) */
/* ------------------------------------------------------------------ */
typedef struct {
    const double *ptime;
    double *start;
    double *finish;
    int64_t *proc;
    int64_t *free_stack;
    int64_t free_sp;
    evheap events;
    rkheap ready;
    double clock;
    int64_t running;
    int64_t peak_running;
    int64_t blocked;
    int64_t starve_min;
    int64_t orphans;
} engine;

/* Start ready tasks on free processors (EO order).  on_started_state, when
 * non-NULL, receives ST_RUN per started node (the MemBooking hook). */
static void dispatch_ready(engine *e, uint8_t *on_started_state) {
    if (e->ready.size == 0) {
        if (e->orphans > 0 && e->running < e->starve_min) e->starve_min = e->running;
        return;
    }
    if (e->free_sp == 0) {
        e->blocked = 1;
        return;
    }
    double clk = e->clock;
    int64_t started = 0;
    while (e->free_sp > 0 && e->ready.size > 0) {
        int64_t node = rk_pop(&e->ready);
        if (on_started_state != NULL) on_started_state[node] = ST_RUN;
        int64_t p = e->free_stack[--e->free_sp];
        e->start[node] = clk;
        double f = clk + e->ptime[node];
        e->finish[node] = f;
        e->proc[node] = p;
        ev_push(&e->events, f, node);
        started++;
    }
    e->running += started;
    if (e->running > e->peak_running) e->peak_running = e->running;
    if (e->ready.size > 0) {
        if (e->free_sp == 0) e->blocked = 1;
    } else if (e->orphans > 0 && e->running < e->starve_min) {
        e->starve_min = e->running;
    }
}

static void engine_init(engine *e, int64_t num_processors, const double *ptime,
                        double *start, double *finish, int64_t *proc, int64_t n,
                        int64_t starve_init, int64_t num_leaves,
                        int64_t *free_stack, double *ev_t, int64_t *ev_n,
                        int64_t *rk_k, int64_t *rk_n) {
    e->ptime = ptime;
    e->start = start;
    e->finish = finish;
    e->proc = proc;
    e->free_stack = free_stack;
    for (int64_t i = 0; i < num_processors; i++) free_stack[i] = num_processors - 1 - i;
    e->free_sp = num_processors;
    e->events.t = ev_t;
    e->events.n = ev_n;
    e->events.size = 0;
    e->ready.k = rk_k;
    e->ready.n = rk_n;
    e->ready.size = 0;
    e->clock = 0.0;
    e->running = 0;
    e->peak_running = 0;
    e->blocked = 0;
    e->starve_min = starve_init;
    e->orphans = num_leaves;
    for (int64_t i = 0; i < n; i++) {
        start[i] = NAN;
        finish[i] = NAN;
        proc[i] = UNSCHEDULED;
    }
}

/* ================================================================== */
/* Activation (Algorithm 1)                                            */
/* ================================================================== */
typedef struct {
    engine eng;
    const double *req_ao;
    const int64_t *ao_seq;
    const int64_t *eo_rank;
    const double *release;
    const int64_t *parent;
    int64_t n;
    double threshold;
    double neg_tol;
    double booked;
    double peak;
    int64_t next;
    int64_t memory_bound;
    double bound_need;
    uint8_t *activated;
    int64_t *ch_not_fin;
} act_state;

/* UpdateCAND-ACT: the sequential ledger fold run_activation_scan performs
 * (its chunked cumsum is the same left-fold of IEEE additions). */
static void act_activate(act_state *s) {
    int64_t pos = s->next;
    int64_t n = s->n;
    if (pos >= n) return;
    double booked = s->booked;
    double peak = s->peak;
    double threshold = s->threshold;
    while (pos < n) {
        double grown = booked + s->req_ao[pos];
        if (grown > threshold) {
            s->memory_bound = 1;
            if (grown < s->bound_need) s->bound_need = grown;
            break;
        }
        booked = grown;
        if (booked > peak) peak = booked;
        int64_t node = s->ao_seq[pos];
        s->activated[node] = 1;
        if (s->ch_not_fin[node] == 0) rk_push(&s->eng.ready, s->eo_rank[node], node);
        pos++;
    }
    s->next = pos;
    s->booked = booked;
    s->peak = peak;
}

/* Returns 0, or FAIL_LEDGER (ledger underflow; *bad holds the value). */
static int64_t act_on_finished(act_state *s, const int64_t *nodes, int64_t count, double *bad) {
    double booked = s->booked;
    double neg_tol = s->neg_tol;
    for (int64_t k = 0; k < count; k++) {
        int64_t node = nodes[k];
        booked -= s->release[node];
        if (booked < 0.0) {
            if (booked < neg_tol) {
                *bad = booked;
                s->booked = booked;
                return FAIL_LEDGER;
            }
            booked = 0.0;
        }
        int64_t p = s->parent[node];
        if (p >= 0) {
            if (--s->ch_not_fin[p] == 0) {
                if (s->activated[p]) {
                    rk_push(&s->eng.ready, s->eo_rank[p], p);
                } else {
                    s->eng.orphans++;
                }
            }
        }
    }
    s->booked = booked;
    return 0;
}

int memtree_activation_run(
    int64_t n, int64_t num_processors, double threshold, double tol,
    const double *req_ao, const int64_t *ao_seq, const int64_t *eo_rank,
    const double *release, const int64_t *parent, const double *ptime,
    const int64_t *num_children, int64_t starve_init,
    double *start, double *finish, int64_t *proc, memtree_stats *stats) {
    memset(stats, 0, sizeof(*stats));
    int64_t num_leaves = 0;
    for (int64_t i = 0; i < n; i++) {
        if (num_children[i] == 0) num_leaves++;
    }
    size_t bytes = (size_t)n * sizeof(uint8_t)           /* activated */
                   + (size_t)(4 * n + 1 + num_processors + n) * sizeof(int64_t)
                   + (size_t)n * sizeof(double);
    uint8_t *arena = (uint8_t *)malloc(bytes ? bytes : 1);
    if (arena == NULL) return -1;
    uint8_t *cursor = arena;
    double *ev_t = (double *)cursor;
    cursor += (size_t)n * sizeof(double);
    int64_t *i64 = (int64_t *)cursor;
    int64_t *ev_n = i64;
    int64_t *rk_k = ev_n + n;
    int64_t *rk_n = rk_k + n;
    int64_t *ch_not_fin = rk_n + n;
    int64_t *finished_now = ch_not_fin + n;
    int64_t *free_stack = finished_now + n + 1;
    uint8_t *activated = (uint8_t *)(free_stack + num_processors);
    memcpy(ch_not_fin, num_children, (size_t)n * sizeof(int64_t));
    memset(activated, 0, (size_t)n);

    act_state s;
    engine_init(&s.eng, num_processors, ptime, start, finish, proc, n,
                starve_init, num_leaves, free_stack, ev_t, ev_n, rk_k, rk_n);
    s.req_ao = req_ao;
    s.ao_seq = ao_seq;
    s.eo_rank = eo_rank;
    s.release = release;
    s.parent = parent;
    s.n = n;
    s.threshold = threshold;
    s.neg_tol = -tol;
    s.booked = 0.0;
    s.peak = 0.0;
    s.next = 0;
    s.memory_bound = 0;
    s.bound_need = INFINITY;
    s.activated = activated;
    s.ch_not_fin = ch_not_fin;

    int64_t finished = 0;
    int64_t num_events = 0;
    int64_t failure = FAIL_NONE;
    double bad = 0.0;

    /* t = 0 event */
    act_activate(&s);
    s.eng.orphans -= s.eng.ready.size; /* ready-pushes consumed orphans */
    dispatch_ready(&s.eng, NULL);
    num_events = 1;
    if (s.eng.running == 0 && finished < n) failure = FAIL_T0;

    while (failure == FAIL_NONE && s.eng.events.size > 0) {
        double clock = s.eng.events.t[0];
        s.eng.clock = clock;
        int64_t count = 0;
        while (s.eng.events.size > 0 && s.eng.events.t[0] == clock) {
            finished_now[count++] = ev_pop(&s.eng.events);
        }
        s.eng.running -= count;
        finished += count;
        num_events += count;
        for (int64_t k = 0; k < count; k++) {
            s.eng.free_stack[s.eng.free_sp++] = proc[finished_now[k]];
        }
        failure = act_on_finished(&s, finished_now, count, &bad);
        if (failure != FAIL_NONE) break;
        int64_t pool = s.eng.ready.size;
        act_activate(&s);
        s.eng.orphans -= s.eng.ready.size - pool;
        dispatch_ready(&s.eng, NULL);
        if (s.eng.running == 0 && finished < n) failure = FAIL_DEADLOCK;
    }

    stats->clock = s.eng.clock;
    stats->peak_booked = s.peak;
    stats->ledger_value = bad;
    stats->finished = finished;
    stats->num_events = num_events;
    stats->next_activation = s.next;
    stats->failure = failure;
    stats->peak_running = s.eng.peak_running;
    stats->blocked = s.eng.blocked;
    stats->memory_bound = s.memory_bound;
    stats->starve_min = s.eng.starve_min;
    stats->bound_need = s.bound_need;
    free(arena);
    return 0;
}

/* ================================================================== */
/* MemBooking (Algorithms 2-4 / Appendix B, optimised structures)      */
/* ================================================================== */
typedef struct {
    engine eng;
    const int64_t *parent;
    const double *fout;
    const double *mem_needed;
    const int64_t *offsets;
    const int64_t *child_nodes;
    const int64_t *ao_rank;
    const int64_t *eo_rank;
    double threshold;
    double tol;
    double mbooked;
    double peak;
    int64_t memory_bound;
    double bound_need;
    int64_t dispatch_to_candidates;
    double *booked;
    double *bbs;
    uint8_t *state;
    int64_t *ch_not_act;
    int64_t *ch_not_fin;
    rkheap cand;
} mb_state;

/* Lazy-deletion peek over the AO-rank candidate heap. */
static int64_t mb_peek_candidate(mb_state *s) {
    while (s->cand.size > 0) {
        int64_t node = s->cand.n[0];
        if (s->state[node] == ST_CAND) return node;
        rk_pop(&s->cand); /* stale entry of an already-activated node */
    }
    return -1;
}

/* UpdateCAND-ACT (run_membooking_activation with the heap structure). */
static void mb_activate(mb_state *s) {
    double mbooked = s->mbooked;
    double peak = s->peak;
    for (;;) {
        int64_t node = mb_peek_candidate(s);
        if (node < 0) break;
        double subtree;
        if (s->dispatch_to_candidates) {
            if (s->bbs[node] == BBS_UNSET) {
                double total = 0.0;
                for (int64_t k = s->offsets[node]; k < s->offsets[node + 1]; k++) {
                    total += s->bbs[s->child_nodes[k]];
                }
                s->bbs[node] = s->booked[node] + total;
            }
            subtree = s->bbs[node];
        } else {
            double total = 0.0;
            for (int64_t k = s->offsets[node]; k < s->offsets[node + 1]; k++) {
                total += s->bbs[s->child_nodes[k]];
            }
            subtree = s->booked[node] + total;
        }
        double missing = s->mem_needed[node] - subtree;
        if (missing < 0.0) missing = 0.0;
        if (mbooked + missing > s->threshold) {
            s->memory_bound = 1;
            double need = mbooked + missing;
            if (need < s->bound_need) s->bound_need = need;
            break; /* wait for more memory; activation keeps following AO */
        }
        mbooked += missing;
        if (mbooked > peak) peak = mbooked;
        s->booked[node] += missing;
        double total = 0.0;
        for (int64_t k = s->offsets[node]; k < s->offsets[node + 1]; k++) {
            total += s->bbs[s->child_nodes[k]];
        }
        s->bbs[node] = s->booked[node] + total;
        s->state[node] = ST_ACT; /* invalidates the lazy heap entry */
        if (s->ch_not_fin[node] == 0) rk_push(&s->eng.ready, s->eo_rank[node], node);
        int64_t p = s->parent[node];
        if (p >= 0) {
            if (--s->ch_not_act[p] == 0) {
                s->state[p] = ST_CAND;
                rk_push(&s->cand, s->ao_rank[p], p);
            }
        }
    }
    s->mbooked = mbooked;
    s->peak = peak;
}

/* DispatchMemory (Algorithm 3 / 6): release j, re-book ALAP up the chain.
 * Returns 0 or FAIL_LEDGER (*bad holds the offending value). */
static int64_t mb_dispatch_memory(mb_state *s, int64_t j, double *bad) {
    double amount = s->booked[j];
    s->booked[j] = 0.0;
    double mbooked = s->mbooked - amount;
    if (mbooked < 0.0) {
        if (mbooked < -s->tol) {
            *bad = mbooked;
            s->mbooked = mbooked;
            return FAIL_LEDGER;
        }
        mbooked = 0.0;
    }
    s->bbs[j] = 0.0;
    int64_t i = s->parent[j];
    if (i < 0) {
        s->mbooked = mbooked;
        return 0;
    }
    double peak = s->peak;
    double fj = s->fout[j];
    s->booked[i] += fj;
    mbooked += fj; /* unenforced book (the freed amount covers it) */
    if (mbooked > peak) peak = mbooked;
    amount -= fj;
    if (s->dispatch_to_candidates) {
        while (i >= 0 && amount > 1e-12 && s->bbs[i] != BBS_UNSET) {
            double cap = s->mem_needed[i] - (s->bbs[i] - amount);
            if (cap < 0.0) cap = 0.0;
            double contribution = amount < cap ? amount : cap;
            if (contribution > 0.0) {
                s->booked[i] += contribution;
                mbooked += contribution;
                if (mbooked > peak) peak = mbooked;
            }
            s->bbs[i] -= amount - contribution;
            amount -= contribution;
            i = s->parent[i];
        }
    } else {
        while (i >= 0 && amount > 1e-12 && (s->state[i] == ST_ACT || s->state[i] == ST_RUN)) {
            double cap = s->mem_needed[i] - (s->bbs[i] - amount);
            if (cap < 0.0) cap = 0.0;
            double contribution = amount < cap ? amount : cap;
            if (contribution > 0.0) {
                s->booked[i] += contribution;
                mbooked += contribution;
                if (mbooked > peak) peak = mbooked;
            }
            s->bbs[i] -= amount - contribution;
            amount -= contribution;
            i = s->parent[i];
        }
    }
    s->mbooked = mbooked;
    s->peak = peak;
    return 0;
}

static int64_t mb_on_finished(mb_state *s, const int64_t *nodes, int64_t count, double *bad) {
    for (int64_t k = 0; k < count; k++) {
        int64_t node = nodes[k];
        s->state[node] = ST_FN;
        int64_t failure = mb_dispatch_memory(s, node, bad);
        if (failure != 0) return failure;
        int64_t p = s->parent[node];
        if (p >= 0) {
            if (--s->ch_not_fin[p] == 0) {
                if (s->state[p] == ST_ACT) {
                    rk_push(&s->eng.ready, s->eo_rank[p], p);
                } else {
                    s->eng.orphans++;
                }
            }
        }
    }
    return 0;
}

int memtree_membooking_run(
    int64_t n, int64_t num_processors, double threshold, double tol,
    const int64_t *parent, const double *fout, const double *mem_needed,
    const double *ptime, const int64_t *child_offsets, const int64_t *child_nodes,
    const int64_t *num_children, const int64_t *ao_rank, const int64_t *eo_rank,
    const int64_t *leaves, int64_t num_leaves, int64_t dispatch_to_candidates,
    int64_t starve_init,
    double *start, double *finish, int64_t *proc, memtree_stats *stats) {
    memset(stats, 0, sizeof(*stats));
    size_t bytes = (size_t)(3 * n) * sizeof(double)       /* booked, bbs, ev_t */
                   + (size_t)(8 * n + 1 + num_processors) * sizeof(int64_t)
                   + (size_t)n * sizeof(uint8_t);          /* state */
    uint8_t *arena = (uint8_t *)malloc(bytes ? bytes : 1);
    if (arena == NULL) return -1;
    uint8_t *cursor = arena;
    double *booked = (double *)cursor;
    double *bbs = booked + n;
    double *ev_t = bbs + n;
    int64_t *i64 = (int64_t *)(ev_t + n);
    int64_t *ev_n = i64;
    int64_t *rk_k = ev_n + n;
    int64_t *rk_n = rk_k + n;
    int64_t *cand_k = rk_n + n;
    int64_t *cand_n = cand_k + n;
    int64_t *ch_not_act = cand_n + n;
    int64_t *ch_not_fin = ch_not_act + n;
    int64_t *finished_now = ch_not_fin + n;
    int64_t *free_stack = finished_now + n + 1;
    uint8_t *state = (uint8_t *)(free_stack + num_processors);
    for (int64_t i = 0; i < n; i++) {
        booked[i] = 0.0;
        bbs[i] = BBS_UNSET;
    }
    memset(state, ST_UN, (size_t)n);
    memcpy(ch_not_act, num_children, (size_t)n * sizeof(int64_t));
    memcpy(ch_not_fin, num_children, (size_t)n * sizeof(int64_t));

    mb_state s;
    engine_init(&s.eng, num_processors, ptime, start, finish, proc, n,
                starve_init, num_leaves, free_stack, ev_t, ev_n, rk_k, rk_n);
    s.parent = parent;
    s.fout = fout;
    s.mem_needed = mem_needed;
    s.offsets = child_offsets;
    s.child_nodes = child_nodes;
    s.ao_rank = ao_rank;
    s.eo_rank = eo_rank;
    s.threshold = threshold;
    s.tol = tol;
    s.mbooked = 0.0;
    s.peak = 0.0;
    s.memory_bound = 0;
    s.bound_need = INFINITY;
    s.dispatch_to_candidates = dispatch_to_candidates;
    s.booked = booked;
    s.bbs = bbs;
    s.state = state;
    s.ch_not_act = ch_not_act;
    s.ch_not_fin = ch_not_fin;
    s.cand.k = cand_k;
    s.cand.n = cand_n;
    s.cand.size = 0;
    for (int64_t k = 0; k < num_leaves; k++) {
        int64_t leaf = leaves[k];
        state[leaf] = ST_CAND;
        rk_push(&s.cand, ao_rank[leaf], leaf);
    }

    int64_t finished = 0;
    int64_t num_events = 0;
    int64_t failure = FAIL_NONE;
    double bad = 0.0;

    /* t = 0 event */
    mb_activate(&s);
    s.eng.orphans -= s.eng.ready.size;
    dispatch_ready(&s.eng, state);
    num_events = 1;
    if (s.eng.running == 0 && finished < n) failure = FAIL_T0;

    while (failure == FAIL_NONE && s.eng.events.size > 0) {
        double clock = s.eng.events.t[0];
        s.eng.clock = clock;
        int64_t count = 0;
        while (s.eng.events.size > 0 && s.eng.events.t[0] == clock) {
            finished_now[count++] = ev_pop(&s.eng.events);
        }
        s.eng.running -= count;
        finished += count;
        num_events += count;
        for (int64_t k = 0; k < count; k++) {
            s.eng.free_stack[s.eng.free_sp++] = proc[finished_now[k]];
        }
        failure = mb_on_finished(&s, finished_now, count, &bad);
        if (failure != FAIL_NONE) break;
        int64_t pool = s.eng.ready.size;
        mb_activate(&s);
        s.eng.orphans -= s.eng.ready.size - pool;
        dispatch_ready(&s.eng, state);
        if (s.eng.running == 0 && finished < n) failure = FAIL_DEADLOCK;
    }

    stats->clock = s.eng.clock;
    stats->peak_booked = s.peak;
    stats->ledger_value = bad;
    stats->finished = finished;
    stats->num_events = num_events;
    stats->next_activation = 0;
    stats->failure = failure;
    stats->peak_running = s.eng.peak_running;
    stats->blocked = s.eng.blocked;
    stats->memory_bound = s.memory_bound;
    stats->starve_min = s.eng.starve_min;
    stats->bound_need = s.bound_need;
    free(arena);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Schedule check: the feasibility checks of validate_schedule and the */
/* resident-memory peak of memory_profile, one stable sort per call.   */
/* ------------------------------------------------------------------ */

/* Result bits.  CHECK_DEFER means "cannot decide here": the caller runs
 * the numpy checks, which also word every error message. */
#define CHECK_DEFER 1       /* finish not finite for a task that started,
                               an infinite or negative instant, a
                               processor id outside [0, min(p, n)) or a
                               parent id outside [-1, n) */
#define CHECK_TASKS 2       /* completion claim, durations, start < 0,
                               task ran without a processor */
#define CHECK_PRECEDENCE 4
#define CHECK_PROCESSORS 8  /* more than p tasks run at one instant */
#define CHECK_OVERLAP 16    /* adjacent tasks overlap on one processor
                               (conservative: equal starts also flag) */
#define CHECK_MEMORY 32     /* resident peak above the bound */
#define CHECK_PEAK_ONLY 1   /* flags: compute the peak, skip the checks */

/* Stable LSD radix sort of (key, idx) pairs by unsigned key, one byte per
 * pass; a pass whose byte is the same for every key is skipped.  Instants
 * are sorted by their bit patterns, which order like the values for
 * non-negative doubles.  tkey/tidx are scratch of the same length. */
static void sort_pairs(uint64_t *key, int64_t *idx, uint64_t *tkey, int64_t *tidx, int64_t m) {
    int64_t count[8][256];
    memset(count, 0, sizeof(count));
    for (int64_t i = 0; i < m; i++)
        for (int d = 0; d < 8; d++) count[d][(key[i] >> (8 * d)) & 255]++;
    uint64_t *sk = key, *dk = tkey;
    int64_t *si = idx, *di = tidx;
    for (int d = 0; d < 8 && m > 0; d++) {
        int64_t *c = count[d];
        if (c[(sk[0] >> (8 * d)) & 255] == m) continue;
        for (int64_t b = 0, sum = 0; b < 256; b++) {
            int64_t k = c[b];
            c[b] = sum;
            sum += k;
        }
        for (int64_t i = 0; i < m; i++) {
            int64_t o = c[(sk[i] >> (8 * d)) & 255]++;
            dk[o] = sk[i];
            di[o] = si[i];
        }
        uint64_t *t = sk; sk = dk; dk = t;
        int64_t *u = si; si = di; di = u;
    }
    if (sk != key) {
        memcpy(key, sk, (size_t)m * sizeof(uint64_t));
        memcpy(idx, si, (size_t)m * sizeof(int64_t));
    }
}

/* The sort key of an instant: its bit pattern, with -0.0 folded into 0.0. */
static uint64_t instant_key(double t) {
    uint64_t bits;
    t += 0.0;
    memcpy(&bits, &t, sizeof(bits));
    return bits;
}

/* Returns a CHECK_* mask (0 = feasible) and the resident peak in *peak_out,
 * or -1 when scratch allocation fails.
 *
 * Accept-or-defer contract: a 0 result implies validate_schedule's numpy
 * checks accept the schedule too, and *peak_out is then bit-identical to
 * memory_profile(tree, result).peak.  Any nonzero result sends the caller
 * to numpy, so this kernel never words an error.
 *
 * The peak is bit-identical because the running sum visits the instants in
 * ascending order (the sort), and each instant's deltas are added in
 * memory_profile's concatenation order: exec starts, exec finishes, output
 * starts, output releases, each by ascending node.  The sort is stable over
 * [starts by node, finishes by node], so an instant's starts precede its
 * finishes and both are in node order; releases are gathered per instant. */
int64_t memtree_check_schedule(
    int64_t n, int64_t num_processors, int64_t completed, int64_t flags,
    double tolerance, double memory_limit,
    const int64_t *parent, const double *ptime, const double *nexec, const double *fout,
    const double *start, const double *finish, const int64_t *proc, double *peak_out) {
    int checks = !(flags & CHECK_PEAK_ONLY);
    int64_t nproc = num_processors < n ? num_processors : n;
    double scale = 1.0;
    int64_t m = 0;
    *peak_out = NAN;
    for (int64_t i = 0; i < n; i++) {
        double f = finish[i];
        if (parent[i] < -1 || parent[i] >= n) return CHECK_DEFER;
        if (!isnan(f)) {
            if (isinf(f) || f < 0.0) return CHECK_DEFER;
            if (f > scale) scale = f;
        }
        if (isfinite(start[i])) {
            if (isnan(f) || start[i] < 0.0) return CHECK_DEFER;
            if (checks && proc[i] != UNSCHEDULED && (proc[i] < 0 || proc[i] >= nproc))
                return CHECK_DEFER;
            m++;
        }
    }
    double tol = tolerance * scale;
    int64_t mask = 0;

    size_t bytes = (size_t)(4 * m) * (sizeof(uint64_t) + sizeof(int64_t))
                   + (size_t)(n + 1 + m + (nproc > 0 ? nproc : 1)) * sizeof(int64_t);
    uint8_t *arena = (uint8_t *)malloc(bytes ? bytes : 1);
    if (arena == NULL) return -1;
    uint64_t *key = (uint64_t *)arena;  /* 2m sorted instants */
    uint64_t *tkey = key + 2 * m;       /* 2m scratch */
    int64_t *idx = (int64_t *)(tkey + 2 * m);  /* node (start) or n + node (finish) */
    int64_t *tidx = idx + 2 * m;
    int64_t *kid_off = tidx + 2 * m; /* released children per parent (CSR) */
    int64_t *kids = kid_off + n + 1;
    int64_t *last = kids + m;        /* last busy task seen per processor */

    /* Linear checks (1: tasks, 2: precedence) and the event arrays. */
    int64_t e = 0;
    memset(kid_off, 0, (size_t)(n + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++) {
        int ran = isfinite(start[i]);
        int64_t q = parent[i];
        if (ran) {
            key[e] = instant_key(start[i]);
            idx[e] = i;
            key[m + e] = instant_key(finish[i]);
            idx[m + e] = n + i;
            e++;
            if (q >= 0 && fout[i] > 0 && isfinite(start[q])) kid_off[q + 1]++;
        }
        if (!checks) continue;
        if (!ran) {
            if (completed) mask |= CHECK_TASKS;
        } else if (fabs((finish[i] - start[i]) - ptime[i]) > tol || start[i] < -tol
                   || proc[i] == UNSCHEDULED) {
            mask |= CHECK_TASKS;
        }
        if (q >= 0 && isfinite(start[q])) {
            if (!ran || start[q] < finish[i] - tol) mask |= CHECK_PRECEDENCE;
        }
    }
    for (int64_t q = 0; q < n; q++) kid_off[q + 1] += kid_off[q];
    for (int64_t i = 0; i < n; i++) {  /* ascending i: each list is in node order */
        int64_t q = parent[i];
        if (q >= 0 && fout[i] > 0 && isfinite(start[i]) && isfinite(start[q]))
            kids[kid_off[q]++] = i;
    }
    for (int64_t q = n; q > 0; q--) kid_off[q] = kid_off[q - 1];
    kid_off[0] = 0;
    for (int64_t k = 0; k < nproc; k++) last[k] = -1;

    sort_pairs(key, idx, tkey, tidx, 2 * m);

    /* memory_profile's profile always holds 0.0 at t=0; when no instant is
     * 0 that sentinel is an instant of its own. */
    double run = 0.0, peak = (m == 0 || key[0] != 0) ? 0.0 : -INFINITY;
    int64_t running = 0;
    for (int64_t g0 = 0, g1; g0 < 2 * m; g0 = g1) {
        uint64_t t = key[g0];
        int64_t h = g0;
        for (g1 = g0; g1 < 2 * m && key[g1] == t; g1++)
            if (idx[g1] < n) h = g1 + 1;  /* starts precede finishes */
        double s = 0.0;
        for (int64_t k = g0; k < h; k++)
            if (nexec[idx[k]] > 0) s += nexec[idx[k]];
        for (int64_t k = h; k < g1; k++)
            if (nexec[idx[k] - n] > 0) s -= nexec[idx[k] - n];
        for (int64_t k = g0; k < h; k++)
            if (fout[idx[k]] > 0) s += fout[idx[k]];
        /* Releases: children of the tasks finishing now, by ascending
         * child; a merge is needed only when several parents release. */
        int64_t released = 0, parents = 0;
        for (int64_t k = h; k < g1; k++) {
            int64_t q = idx[k] - n;
            if (kid_off[q + 1] == kid_off[q]) continue;
            parents++;
            for (int64_t c = kid_off[q]; c < kid_off[q + 1]; c++) {
                tkey[released] = (uint64_t)kids[c];
                tidx[released++] = kids[c];
            }
        }
        if (parents > 1) sort_pairs(tkey, tidx, tkey + m, tidx + m, released);
        for (int64_t c = 0; c < released; c++) s -= fout[tidx[c]];
        run += s;
        if (run > peak) peak = run;
        if (!checks) continue;

        /* 3: finishes free processors before the instant's starts take them. */
        for (int64_t k = h; k < g1; k++)
            if (ptime[idx[k] - n] > 0) running--;
        for (int64_t k = g0; k < h; k++) {
            int64_t i = idx[k];
            if (!(ptime[i] > 0)) continue;
            running++;
            /* 4: the previous task on this processor in (start, node) order;
             * without equal starts that is numpy's (start, finish) order. */
            if (proc[i] == UNSCHEDULED) continue;
            int64_t j = last[proc[i]];
            if (j >= 0 && (start[j] == start[i] || start[i] < finish[j] - tol))
                mask |= CHECK_OVERLAP;
            last[proc[i]] = i;
        }
        if (running > num_processors) mask |= CHECK_PROCESSORS;
    }
    if (checks && peak > memory_limit * (1 + tolerance) + tol) mask |= CHECK_MEMORY;
    *peak_out = peak;
    free(arena);
    return mask;
}
