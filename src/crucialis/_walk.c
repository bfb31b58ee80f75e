/* The branch scan of crucialis, compiled: a second copy of search._walk.
 *
 * search._walk is the definition of the walk. This file transliterates its
 * body for n <= 7 letters, for the one walk the search runs in C: the scan
 * below a branch prefix down to the full length L, search._walk without a
 * stop. Both return search._scan_branch's record for its task, and the
 * tests check the two record for record (tests/test_native_walk.py): the
 * same words, the same node counts, the same node at which a cap trips.
 * Change both together. The branch split stays in Python. The slot table
 * (search._slot_events) and the lane constants (search._lanes) are built in
 * Python and passed in flattened (see _native.py), so they are defined once.
 * The table holds each depth's half determined slots and blocks in progress
 * as the ends of an interval, so it grows as L; it lists only the slots that
 * each depth checks. S[b] and G[b] hold slot b's state as of its last
 * finished block, as in _walk: the depth that checks a slot saves them as it
 * enters and puts them back as the walk leaves it.
 * Like _walk, it scans canonical R only: every search runs that one scan.
 *
 * The packed letter counts are unsigned __int128, 7 lanes of 17 bits, where
 * Python's ints are unbounded. Every expression here is a sum of at most a
 * few packed vectors and their doubles. For n <= 7 and L <= 65,535 each lane
 * of a prefix count holds at most L < 2^16, so every exact value lies within
 * (-2^127, 2^127), and its residue mod 2^128 is what the C code holds. The
 * walk uses a value in three ways only, and each gives Python's answer:
 *   - equality of two values: both lie within (-2^127, 2^127), so they are
 *     equal exactly when they agree mod 2^128;
 *   - AND with `full` (bits below 119): the low 128 bits of an integer in
 *     two's complement are its residue mod 2^128, so the masked value is the
 *     same; the values popcounted or shifted are masked ones, nonnegative
 *     and below 2^119;
 *   - OR of lane top bits, which are nonnegative and below 2^119.
 *
 * The scan has no way to see Ctrl-C while it runs. A sequential search
 * raises KeyboardInterrupt once the call returns, at the end of the branch.
 * A parallel search runs each scan on a thread of its pool, with the GIL
 * released (ctypes does that for the call); its main thread sees Ctrl-C at
 * once and stops the scans by moving the deadline they poll (A_DEADLINE).
 */
#define _POSIX_C_SOURCE 200809L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

__extension__ typedef unsigned __int128 u128;

#define TIME_CHECK_MASK 0xFFF /* poll the deadline every 4096 node expansions */
#define MAX_LETTERS 7

/* One row of the flattened slot table per depth t = 0..L, see _native.py:
 * the events, cap and free of search._slot_events, the offset and number
 * of the depth's checked slots in the lists, and the [start, stop) of its
 * half and prog ranges */
enum { EV, NB, RB, CAP, FREE, CHECKS, NCHECKS, HALF, HALF_END, PROG, PROG_END, ROW };

typedef struct {
    int a, last, seen;
    u128 done, named, nbase, nceil, rbit, rtarget;
} Frame;

typedef struct {
    int L, keep;
    uint8_t *word, *formed, *least, *kept;
    int64_t count, room;
} Leaves;

static int popcount(u128 v)
{
    return __builtin_popcountll((uint64_t)v) + __builtin_popcountll((uint64_t)(v >> 64));
}

/* Whether the clock has passed the deadline, which another thread may move */
static int past(const double *deadline)
{
    struct timespec ts;
    double end;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    __atomic_load(deadline, &end, __ATOMIC_RELAXED);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9 > end;
}

/* The letter whose unit vector v is, or 0 */
static int letter_of(u128 v, const u128 *unit, int n)
{
    for (int c = 1; c <= n; c++)
        if (v == unit[c])
            return c;
    return 0;
}

/* A leaf of search._walk: map the word R to its W-canonical form, count it,
 * keep the least, and append it to the kept words when words are kept. 0, or
 * -1 when the kept words cannot grow */
static int leaf(Leaves *lv)
{
    int L = lv->L;
    if (lv->keep && lv->count == lv->room) {
        int64_t room = lv->room ? 2 * lv->room : 64;
        uint8_t *kept = realloc(lv->kept, (size_t)room * (size_t)L);
        if (!kept)
            return -1;
        lv->kept = kept;
        lv->room = room;
    }
    uint8_t *out = lv->keep ? lv->kept + lv->count * L : lv->formed;
    uint8_t names[MAX_LETTERS + 1] = {0};
    int named = 0;
    for (int i = 0; i < L; i++) {
        uint8_t a = lv->word[L - 1 - i];
        if (!names[a])
            names[a] = (uint8_t)++named;
        out[i] = names[a];
    }
    if (lv->count++ == 0 || memcmp(out, lv->least, (size_t)L) < 0)
        memcpy(lv->least, out, (size_t)L);
    return 0;
}

/* Frees the kept words a walk handed back */
void crucialis_free(void *kept)
{
    free(kept);
}

/* The slots of the one argument of crucialis_walk, 64 bits each. The
 * caller fills those before A_NODES; the walk writes the rest. A_DEADLINE is
 * the address of the search's deadline, one double of CLOCK_MONOTONIC
 * seconds, or 0 for none. Another thread writes it to stop the walk, so
 * the walk reads it with an atomic load; relaxed order is enough, as the
 * value orders no other memory. */
enum {
    A_N, A_K, A_L, A_TOP, A_LANES, A_EVENTS, A_LISTS, A_NLISTS, /* fixed by (n, k, L) */
    A_PREFIX, A_PLEN, A_NODE_CAP, A_KEEP, A_LEAST, A_DEADLINE,
    A_NODES, A_TRIPPED, A_COUNT, A_KEPT
};

#define ADDRESS(type, slot) ((type)(uintptr_t)a[slot])

/* The scan of search._scan_branch: the walk of search._walk from a prefix
 * of A_PLEN <= L letters at A_PREFIX down to the full length L >= 1.
 *
 * A_LANES holds unit[0..n], bit[0..n], full and fill as (low, high) 64-bit
 * pairs, and A_TOP is the lane's top bit. A_EVENTS holds ROW ints per depth
 * t = 0..L, and A_LISTS the A_NLISTS checked slots b they point at.
 * A_NODE_CAP < 0 means no cap. The walk trips once the clock passes the
 * deadline at A_DEADLINE, polled every 4096 nodes. Each leaf is mapped
 * to its W-canonical form and counted, and the least is kept at A_LEAST.
 * With A_KEEP, every word is also kept, in the walk's order (unsorted:
 * search.enumerate_crucial sorts them), in a buffer whose address goes to
 * A_KEPT, which the caller frees with crucialis_free. A_NODES, A_TRIPPED
 * and A_COUNT receive the nodes, whether a budget tripped and the words
 * found.
 *
 * Returns 0, or -1 if memory ran out; then nothing is kept. */
int crucialis_walk(int64_t *a)
{
    int n = (int)a[A_N], k = (int)a[A_K], L = (int)a[A_L], top = (int)a[A_TOP];
    const uint64_t *lanes = ADDRESS(const uint64_t *, A_LANES);
    const int32_t *events = ADDRESS(const int32_t *, A_EVENTS);
    const int32_t *lists = ADDRESS(const int32_t *, A_LISTS);
    int64_t nlists = a[A_NLISTS];
    const uint8_t *prefix = ADDRESS(const uint8_t *, A_PREFIX);
    int plen = (int)a[A_PLEN], keep = (int)a[A_KEEP];
    int64_t node_cap = a[A_NODE_CAP];
    uint8_t *least = ADDRESS(uint8_t *, A_LEAST);
    const double *deadline = ADDRESS(const double *, A_DEADLINE);

    a[A_NODES] = a[A_TRIPPED] = a[A_COUNT] = a[A_KEPT] = 0;
    if (n > (L + 1) / k)
        return 0; /* fewer slots than letters: no word completes them all */

    u128 unit[MAX_LETTERS + 1], bit[MAX_LETTERS + 1];
    for (int c = 0; c <= n; c++) {
        unit[c] = (u128)lanes[2 * c + 1] << 64 | lanes[2 * c];
        bit[c] = (u128)lanes[2 * (n + 1 + c) + 1] << 64 | lanes[2 * (n + 1 + c)];
    }
    const uint64_t *tail = lanes + 4 * (n + 1);
    u128 full = (u128)tail[1] << 64 | tail[0];
    u128 fill = (u128)tail[3] << 64 | tail[2];

    size_t slots = (size_t)((L + 1) / k + 1);
    u128 *P = calloc((size_t)L + 1, sizeof *P);
    u128 *G = calloc(slots, sizeof *G);
    int *S = calloc(slots, sizeof *S);
    /* live[i]: the (target, x) of check i of the lists, set at its depth, and the G it found */
    u128 *live_target = calloc((size_t)nlists, sizeof *live_target);
    int *live_x = calloc((size_t)nlists, sizeof *live_x);
    u128 *live_g = calloc((size_t)nlists, sizeof *live_g);
    Frame *F = calloc((size_t)L + 1, sizeof *F);
    uint8_t *word = calloc((size_t)L + 1, 1);
    uint8_t *formed = calloc((size_t)L + 1, 1);
    int status = -1;
    if (!P || !G || !S || !live_target || !live_x || !live_g || !F || !word || !formed)
        goto end;
    status = 0;

    Leaves lv = {L, keep, word, formed, least, NULL, 0, 0};
    int64_t nodes = -plen;
    int tripped = 0;
    int m = 0;
    int seen = 0;
    u128 done = 0, named = 0;

    for (;;) {
        /* enter depth m: the dfs(m, seen, done, named) call of _walk */
        Frame *f = &F[m];
        int t = m + 1;
        const int32_t *e = events + (size_t)t * ROW;
        f->seen = seen;
        f->done = done;
        if (e[EV]) {
            int nb = e[NB], rb = e[RB];
            if (nb) {
                f->nbase = 2 * P[nb - 1];
                f->nceil = full - P[nb - 1];
            }
            if (rb) { /* the slot leaves the future; it completes its letter if block k matches */
                int rx = S[rb];
                named -= unit[rx];
                f->rbit = bit[rx];
                f->rtarget = P[t - rb] + P[2 * rb - 1] - P[rb - 1];
            }
            const int32_t *chk = lists + e[CHECKS];
            for (int i = 0; i < e[NCHECKS]; i++) { /* assume the slot dies; a match revives it */
                int b = chk[i];
                int x = S[b];
                named -= unit[x];
                u128 block = P[2 * b - 1] - P[b - 1];
                live_target[e[CHECKS] + i] = P[t - b] + block;
                live_x[e[CHECKS] + i] = x;
                live_g[e[CHECKS] + i] = G[b];
                G[b] = P[t - b] + 2 * block + full;
            }
        }
        f->named = named;
        if (m < plen) {
            f->a = f->last = prefix[m];
        } else {
            f->a = 1;
            f->last = seen + 1 < n ? seen + 1 : n;
        }

        /* try the letters of depth m, descending into the first that survives */
        for (;;) {
            f = &F[m];
            if (f->a > f->last) {
                if (m == 0)
                    goto walked;
                e = events + (size_t)(m + 1) * ROW;
                for (int i = e[CHECKS]; i < e[CHECKS] + e[NCHECKS]; i++) {
                    S[lists[i]] = live_x[i]; /* the slots checked here get back their state */
                    G[lists[i]] = live_g[i];
                }
                m--;
                continue;
            }
            int a = f->a++;
            t = m + 1;
            e = events + (size_t)t * ROW;
            nodes++;
            if ((node_cap >= 0 && nodes > node_cap) ||
                ((nodes & TIME_CHECK_MASK) == 0 && deadline && past(deadline))) {
                tripped = 1;
                goto walked;
            }
            u128 pa = P[m] + unit[a];
            P[t] = pa;
            u128 d = f->done, c = f->named;
            if (e[EV]) {
                if (k == 2) { /* the slot is reached as it is determined; none is named */
                    d |= bit[letter_of(pa - f->nbase, unit, n)];
                } else {
                    if (e[RB] && pa == f->rtarget)
                        d |= f->rbit;
                    if (e[NB]) {
                        int x = letter_of(pa - f->nbase, unit, n);
                        S[e[NB]] = x;
                        G[e[NB]] = 2 * pa + f->nceil;
                        c += unit[x];
                    }
                    const int32_t *chk = lists + e[CHECKS];
                    for (int i = 0; i < e[NCHECKS]; i++) {
                        if (pa == live_target[e[CHECKS] + i]) {
                            int x = live_x[e[CHECKS] + i];
                            S[chk[i]] = x;
                            c += unit[x];
                        } else {
                            S[chk[i]] = 0;
                        }
                    }
                }
                if (popcount(full ^ (d | ((c + fill) & full))) > e[CAP])
                    continue; /* too few slots left, even if each undetermined one is free */
            }
            if (d != full) {
                /* the matching count of (c): each letter still open needs a
                 * slot of its own that admits it */
                int alls = e[FREE];
                u128 live_c = c;
                for (int b = e[PROG]; b < e[PROG_END]; b++) {
                    int x = S[b];
                    if (x && ((G[b] - pa) & full) != full)
                        live_c -= unit[x]; /* its block in progress outgrew block 2: dead */
                }
                u128 covered = d | ((live_c + fill) & full);
                for (int h = e[HALF]; h < e[HALF_END]; h++) {
                    u128 q = 2 * P[h] + full - pa;
                    u128 miss = full ^ (q & full);
                    if (!miss)
                        alls++; /* admits every letter */
                    else if (!(miss & (miss - 1)) && ((q + (miss >> top)) & full) == full)
                        covered |= miss; /* admits only the letter of lane miss */
                }
                if (popcount(full ^ covered) > alls)
                    continue; /* too few slots left for the open letters */
            }
            /* _suffix_power_from_prefixes(P, t, k, range(1, t // k + 1)) */
            int power = 0;
            for (int b = 1; b <= t / k && !power; b++) {
                u128 first = pa - P[t - b];
                int j = 2;
                while (j <= k && P[t - (j - 1) * b] - P[t - j * b] == first)
                    j++;
                power = j > k;
            }
            if (power)
                continue; /* the extension ends in an abelian k-th power */
            word[m] = (uint8_t)a;
            if (t == L) {
                if (leaf(&lv)) {
                    status = -1;
                    goto walked;
                }
                continue;
            }
            seen = f->seen > a ? f->seen : a;
            done = d;
            named = c;
            m = t;
            break;
        }
    }
walked:
    a[A_NODES] = nodes;
    a[A_TRIPPED] = tripped;
    a[A_COUNT] = lv.count;
    if (status == 0)
        a[A_KEPT] = (int64_t)(uintptr_t)lv.kept;
    else
        free(lv.kept);
end:
    free(P);
    free(G);
    free(S);
    free(live_target);
    free(live_x);
    free(live_g);
    free(F);
    free(word);
    free(formed);
    return status;
}
