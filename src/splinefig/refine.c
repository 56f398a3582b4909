/* Three compiled kernels of splinefig.surface: refine_contact whole
 * (two window fits and their best-first search), OcclusionTester.covers'
 * damped Newton solves over a surface's lowered program, and
 * intersect_projected's scan for crossing segments and contact sites.
 *
 * splinefig.surface builds this file with the system C compiler the
 * first time a process needs any of them, and calls refine_contact,
 * occlusion_covers and intersect_scan through ctypes.  Each kernel
 * gives the bits of the Python it replaces.
 *
 * refine_contact is surface.refine_contact in one call per contact
 * site: it slices the two windows, fits each, applies the overlap
 * bail-out (foot below, with a NaN distance failing it as np.min's NaN
 * does), searches the fits best first and answers by the gap rule, the
 * box midpoint, the chords' meet and the box test, as the Python path
 * does.  A center outside its polyline is refused before anything is
 * read.  The fit (oshima_fit, exported for its own test) has the float
 * operations of spline.build_spline(..., closed=False) and
 * _oshima_columns in the same order: the parabolic virtual end points
 * (reflection for two points), chord norms by py_hypot, the unit
 * chords' product where the norms' product underflows, cos theta = 1
 * where one chord is zero or cos theta is NaN, then np.clip's clamp,
 * c = 0 where the span is 0, and single-point rows; it refuses exactly
 * where build_spline raises DegenerateGeometryError.
 *
 * The search does every float operation of the Python loop
 * (surface._piece, surface._halves and surface._best_first), in the
 * same order:
 *
 *  - box diagonals and heap keys come from py_hypot, a port of CPython's
 *    math.hypot for two arguments (vector_norm of Python 3.11: frexp
 *    scaling, Veltkamp split, compensated sums and one correction step;
 *    Borges, "An Improved Algorithm for hypot(a,b)", arXiv:1904.09481),
 *    with the subnormal branch of the Python that builds it, which sets
 *    HYPOT_DIVIDES_BY_MAX to 1 before 3.12.  The C library's hypot rounds
 *    differently.  A normal maximum's exponent is read from its bits,
 *    and the result is multiplied by 2**e rather than divided by 2**-e:
 *    both round the same exact value.  Where an argument is 0 it returns
 *    the other, the value vector_norm rounds to exactly;
 *  - the pairs wait in a radix heap whose bucket 0 is heapq's heap:
 *    _siftdown, and _siftup moving the smaller child up to a leaf
 *    before sifting down, with keys compared as tuples compare, so the
 *    pops come in heapq's order even when a key is NaN (best_first says
 *    why the other buckets change no pop).
 *
 * Most keys are never compared past their gap, and most pieces never
 * pop, so the site's distance to a pair's overlap, a pure function of
 * the pair's boxes and the site, is taken when the pair's gap first
 * compares equal to another, and a piece's diagonal when a pair holding
 * it first pops: every comparison, NaN included, decides as it would on
 * keys taken up front.  A heap slot holds the gap and the push count
 * alone (16 bytes a sift step moves); the distance, the pieces and the
 * bucket chain wait in a record per push, indexed by that count.
 *
 * The solves (occlusion_covers) are OcclusionTester._newton line for
 * line, with py_hypot for math.hypot, from the start of every seed
 * cell whose box holds the query, followed by covers' range check,
 * clamp and 1e-7 dedup.  They run the surface's programs through
 * program_run, which interprets the operation list expr._compile
 * lowers (an evaluation procedure; Griewank & Walther, "Evaluating
 * Derivatives", ch. 2) with the scalar call's IEEE operations and libm
 * routines, and answers "raised" exactly where that call raises
 * DomainError:
 *
 *  - / where the divisor is 0.0;
 *  - sqrt, sin, cos, tan, exp and log where the result is NaN and the
 *    argument is not, or the result is infinite and the argument finite
 *    (CPython's math_1; log is m_log there, whose values C's log gives
 *    but for the sign of a NaN);
 *  - ^ where both inputs are finite and libm's pow is not (math.pow);
 *  - +, -, *, neg and abs never;
 *  - and where any output is not finite.
 *
 * The scan (intersect_scan) does the float operations of the numpy
 * path (surface._meet, surface._feet and the box tests of
 * surface._pair_blocks) element by element, in the same order:
 *
 *  - the same frexp and ldexp scaling, with frexp's exponent of 0, of
 *    an infinity and of NaN taken as 0, as np.frexp gives it;
 *  - maxima that are NaN where an argument is NaN, as np.maximum and
 *    np.max give them, and a window minimum that fails the site test
 *    where a listed distance is NaN, as np.min's NaN does;
 *  - np.clip's clamp, which keeps NaN and -0.0.
 *
 * It finds the pairs whose boxes meet by the sort and sweep on x of
 * _pair_blocks, so its time and memory grow with the curves and the
 * pairs that meet, and it lists them in the numpy path's row-major
 * order.
 *
 * Each call mallocs its scratch memory and frees it before it returns,
 * so no two calls, and no two threads, share any.  glibc serves a block
 * of a search's size, once freed, again from the same thread's arena,
 * whose pages stay resident: after its first search, a thread writes to
 * no fresh page.  A fresh mmap per call, unmapped after it, cost about
 * 229 minor page faults per search that spends its whole budget, and
 * about 2330 per surface-scenes op against 26 with malloc; each munmap
 * in a process with threads also costs cross-CPU TLB shootdowns.
 *
 * Build with -ffp-contract=off and without -ffast-math: no a*b + c may
 * be fused or reordered.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    double hi, lo;
} DoubleLength;

static DoubleLength dl_fast_sum(double a, double b)
{
    double x = a + b;
    double y = (a - x) + b;
    return (DoubleLength){x, y};
}

static DoubleLength dl_split(double x)
{
    double t = x * 134217729.0; /* Veltkamp constant, 2**27 + 1 */
    double hi = t - (t - x);
    double lo = x - hi;
    return (DoubleLength){hi, lo};
}

static DoubleLength dl_mul(double x, double y)
{
    DoubleLength xx = dl_split(x);
    DoubleLength yy = dl_split(y);
    double p = xx.hi * yy.hi;
    double q = xx.hi * yy.lo + xx.lo * yy.hi;
    double z = p + q;
    double zz = p - z + q + xx.lo * yy.lo;
    return (DoubleLength){z, zz};
}

/* the norm of (x, y), both finite, non-negative and at most max, which
 * is not 0 */
static double vector_norm(double x, double y, double max)
{
    double vec[2] = {x, y};
    double h, scale, unscale = 0.0, csum = 1.0, frac1 = 0.0, frac2 = 0.0;
    DoubleLength pr, sm;
    uint64_t bits;
    int max_e, i;

    /* frexp's exponent of a normal max, read from its bits */
    memcpy(&bits, &max, sizeof bits);
    max_e = (int)(bits >> 52) - 1022;
    if (-1022 < max_e && max_e <= 1022) {
        /* 2**-max_e and 2**max_e are both normal: made from their bits */
        bits = (uint64_t)(1023 - max_e) << 52;
        memcpy(&scale, &bits, sizeof scale);
        bits = (uint64_t)(1023 + max_e) << 52;
        memcpy(&unscale, &bits, sizeof unscale);
    } else {
        frexp(max, &max_e);
        if (max_e < -1023) {
            /* ldexp(1.0, -max_e) would overflow */
#if HYPOT_DIVIDES_BY_MAX
            /* CPython 3.10 and 3.11: divide by max instead of scaling */
            for (i = 0; i < 2; i++) {
                double v = vec[i] / max;
                double old = csum;
                v = v * v;
                csum += v;
                frac1 += (old - csum) + v;
            }
            return max * sqrt(csum - 1.0 + frac1);
#else
            /* CPython 3.12 on: make subnormals normal */
            return DBL_MIN * vector_norm(x / DBL_MIN, y / DBL_MIN, max / DBL_MIN);
#endif
        }
        scale = ldexp(1.0, -max_e);
    }
    for (i = 0; i < 2; i++) {
        double v = vec[i] * scale; /* lossless scaling */
        pr = dl_mul(v, v);         /* lossless squaring */
        sm = dl_fast_sum(csum, pr.hi);
        csum = sm.hi;
        frac1 += pr.lo;
        frac2 += sm.lo;
    }
    h = sqrt(csum - 1.0 + (frac1 + frac2));
    pr = dl_mul(-h, h);
    sm = dl_fast_sum(csum, pr.hi);
    csum = sm.hi;
    frac1 += pr.lo;
    frac2 += sm.lo;
    h += (csum - 1.0 + (frac1 + frac2)) / (2.0 * h); /* correction */
    /* h * 2**max_e rounds the exact value h / 2**-max_e rounds */
    return unscale != 0.0 ? h * unscale : h / scale;
}

/* math.hypot(x, y), bit for bit */
double py_hypot(double x, double y)
{
    double max = 0.0;
    x = fabs(x);
    y = fabs(y);
    if (x > max)
        max = x;
    if (y > max)
        max = y;
    if (isinf(max))
        return max;
    if (isnan(x) || isnan(y))
        return NAN;
    /* vector_norm's value where an argument is 0: the other, exactly */
    if (x == 0.0 || y == 0.0)
        return max;
    return vector_norm(x, y, max);
}

/* surface._piece's list: v[0:8] the control coordinates, v[8:12] their
 * box (xmin, ymin, xmax, ymax), v[12] its diagonal, or -1 until a pair
 * holding it pops (a diagonal is never negative); half is the index of
 * the first of its halves once split, else -1 */
typedef struct {
    double v[13];
    long half;
} Piece;

static void make_piece(Piece *p, double x0, double y0, double x1, double y1,
                       double x2, double y2, double x3, double y3)
{
    double xmin, ymin, xmax, ymax;
    xmin = x1 < x0 ? x1 : x0;
    xmin = x2 < xmin ? x2 : xmin;
    xmin = x3 < xmin ? x3 : xmin;
    ymin = y1 < y0 ? y1 : y0;
    ymin = y2 < ymin ? y2 : ymin;
    ymin = y3 < ymin ? y3 : ymin;
    xmax = x1 > x0 ? x1 : x0;
    xmax = x2 > xmax ? x2 : xmax;
    xmax = x3 > xmax ? x3 : xmax;
    ymax = y1 > y0 ? y1 : y0;
    ymax = y2 > ymax ? y2 : ymax;
    ymax = y3 > ymax ? y3 : ymax;
    double v[13] = {x0, y0, x1, y1, x2, y2, x3, y3, xmin, ymin, xmax, ymax, -1.0};
    memcpy(p->v, v, sizeof v);
    p->half = -1;
}

static double diagonal(Piece *p)
{
    if (p->v[12] < 0.0)
        p->v[12] = py_hypot(p->v[10] - p->v[8], p->v[11] - p->v[9]);
    return p->v[12];
}

/* surface._halves: piece k split at t = 1/2 into pieces n and n + 1 */
static void split(Piece *pieces, long k, long n)
{
    const double *p = pieces[k].v;
    double x0 = p[0], y0 = p[1], x1 = p[2], y1 = p[3];
    double x2 = p[4], y2 = p[5], x3 = p[6], y3 = p[7];
    double qx0 = x0 + (x1 - x0) * 0.5;
    double qy0 = y0 + (y1 - y0) * 0.5;
    double qx1 = x1 + (x2 - x1) * 0.5;
    double qy1 = y1 + (y2 - y1) * 0.5;
    double qx2 = x2 + (x3 - x2) * 0.5;
    double qy2 = y2 + (y3 - y2) * 0.5;
    double rx0 = qx0 + (qx1 - qx0) * 0.5;
    double ry0 = qy0 + (qy1 - qy0) * 0.5;
    double rx1 = qx1 + (qx2 - qx1) * 0.5;
    double ry1 = qy1 + (qy2 - qy1) * 0.5;
    double sx = rx0 + (rx1 - rx0) * 0.5;
    double sy = ry0 + (ry1 - ry0) * 0.5;
    make_piece(&pieces[n], x0, y0, qx0, qy0, rx0, ry0, sx, sy);
    make_piece(&pieces[n + 1], sx, sy, rx1, ry1, qx2, qy2, x3, y3);
    pieces[k].half = n;
}

/* a heap slot: the pair's gap and its push count, tick, which indexes
 * the pair's record */
typedef struct {
    double gap;
    long tick;
} Key;

/* a pushed pair: the seed's distance to its boxes' overlap, -1 until a
 * comparison needs it (a distance is never negative), its gap, its
 * pieces, and the next pair in its bucket's chain */
typedef struct {
    double dist, gap;
    long a, b, next;
} Pair;

/* a search's pieces, its bucket 0 of size slots, its pairs in push
 * order, the count of pushes and the seed; the radix heap's last key,
 * a mask with bit i set where the bucket i + 1 holds pairs, and the
 * first pair of each such chain */
typedef struct {
    Piece *pieces;
    Key *heap;
    Pair *pairs;
    long size, tick;
    double sx, sy;
    uint64_t last, full;
    long chain[64];
} Search;

/* a gap's bits as an unsigned integer: for gaps of +0 and up, in the
 * order of the gaps */
static uint64_t key_bits(double gap)
{
    uint64_t bits;
    memcpy(&bits, &gap, sizeof bits);
    return bits;
}

/* the seed's distance to the overlap of the boxes of pair tick, taken
 * once */
static double tie_key(const Search *s, long tick)
{
    Pair *e = &s->pairs[tick];
    if (e->dist < 0.0) {
        const double *pa = s->pieces[e->a].v, *pb = s->pieces[e->b].v;
        double lo = pa[8] > pb[8] ? pa[8] : pb[8];
        double hi = pa[10] < pb[10] ? pa[10] : pb[10];
        double fx = lo - s->sx > s->sx - hi ? lo - s->sx : s->sx - hi;
        lo = pa[9] > pb[9] ? pa[9] : pb[9];
        hi = pa[11] < pb[11] ? pa[11] : pb[11];
        double fy = lo - s->sy > s->sy - hi ? lo - s->sy : s->sy - hi;
        fx = 0.0 > fx ? 0.0 : fx;
        fy = 0.0 > fy ? 0.0 : fy;
        e->dist = py_hypot(fx, fy);
    }
    return e->dist;
}

/* (gap, dist, tick) < (gap, dist, tick) as Python's tuples compare */
static int less(const Search *s, const Key *x, const Key *y)
{
    double dx, dy;
    if (!(x->gap == y->gap))
        return x->gap < y->gap;
    dx = tie_key(s, x->tick);
    dy = tie_key(s, y->tick);
    if (!(dx == dy))
        return dx < dy;
    return x->tick < y->tick;
}

/* heapq._siftdown */
static void sift_down(Search *s, long start, long pos)
{
    Key *heap = s->heap, item = heap[pos];
    while (pos > start) {
        long parent = (pos - 1) >> 1;
        if (!less(s, &item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* heapq._siftup */
static void sift_up(Search *s, long pos)
{
    Key *heap = s->heap, item = heap[pos];
    long start = pos, child = 2 * pos + 1;
    while (child < s->size) {
        if (child + 1 < s->size && !less(s, &heap[child], &heap[child + 1]))
            child++;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = item;
    sift_down(s, start, pos);
}

/* pair tick into bucket 0 (heapq.heappush) if its gap's bits are at
 * most last, else onto the chain of the bucket i + 1, bit i being the
 * highest at which they differ from last */
static void file(Search *s, long tick)
{
    Pair *e = &s->pairs[tick];
    uint64_t bits = key_bits(e->gap);
    if (bits <= s->last) {
        s->heap[s->size] = (Key){e->gap, tick};
        sift_down(s, 0, s->size++);
    } else {
        int i = 63 - __builtin_clzll(bits ^ s->last);
        e->next = s->full >> i & 1 ? s->chain[i] : -1;
        s->chain[i] = tick;
        s->full |= (uint64_t)1 << i;
    }
}

/* a push of pieces a and b keyed as surface._best_first keys them */
static void push(Search *s, long a, long b)
{
    const double *pa = s->pieces[a].v, *pb = s->pieces[b].v;
    /* the boxes' gap */
    double dx = pa[8] - pb[10], ex = pb[8] - pa[10];
    double dy = pa[9] - pb[11], ey = pb[9] - pa[11];
    dx = ex > dx ? ex : dx;
    dy = ey > dy ? ey : dy;
    dx = 0.0 > dx ? 0.0 : dx;
    dy = 0.0 > dy ? 0.0 : dy;
    s->pairs[s->tick] = (Pair){-1.0, py_hypot(dx, dy), a, b, -1};
    file(s, s->tick++);
}

/* heapq.heappop of bucket 0, refilled first if empty (and a bucket
 * above holds pairs): the lowest such bucket's smallest gap becomes
 * last, and each of its pairs is filed again */
static Key pop(Search *s)
{
    if (s->size == 0) {
        int i = __builtin_ctzll(s->full);
        long t, next;
        s->last = UINT64_MAX;
        for (t = s->chain[i]; t >= 0; t = s->pairs[t].next) {
            uint64_t bits = key_bits(s->pairs[t].gap);
            s->last = bits < s->last ? bits : s->last;
        }
        s->full &= ~((uint64_t)1 << i);
        for (t = s->chain[i]; t >= 0; t = next) {
            next = s->pairs[t].next;
            file(s, t);
        }
    }
    Key last = s->heap[--s->size];
    if (s->size == 0)
        return last;
    Key top = s->heap[0];
    s->heap[0] = last;
    sift_up(s, 0);
    return top;
}

/* surface._best_first on pieces[0:na] and pieces[na:na + nb] with the
 * seed (sx, sy): at most budget pops, pieces having room for na + nb +
 * 2 * budget pieces and heap and pairs for na * nb + 2 * budget pairs
 * (each pop splits at most one piece and pushes two pairs).  Returns 1
 * when a pair of leaves pops, with its gap in *gap and its record in
 * *won; else 0.  *made is the count of pieces the splits made.
 *
 * The pairs wait in a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
 * "Faster algorithms for the shortest path problem", JACM 1990) keyed
 * by their gaps' bits.  Its invariant: bucket 0, heapq's heap, holds
 * every pair whose gap's bits are at most last; bucket i + 1 chains the
 * pairs whose gap's bits exceed last and first differ from it at bit i.
 * A pair in a lower bucket has the smaller gap, and every gap in bucket
 * 0 is at most every gap above it, so bucket 0's least pair is the least
 * of all.  When bucket 0 empties, the lowest bucket's smallest gap
 * becomes last and that bucket's pairs are filed again, each into a
 * lower bucket, those with that gap into bucket 0.  A pair pushed with
 * a gap below last goes to bucket 0 too, so no pop rests on a split's
 * gaps growing.
 *
 * So each pop takes the least pair, by less, of every pair waiting.
 * Where each control point is finite and within +-2**1022, every box
 * and seed coordinate is too, so every gap and distance is finite,
 * (gap, dist, tick) orders the pairs strictly, and the least pair is
 * the one heapq pops: the pops are heapq's, one for one.  Elsewhere NaN
 * keys may compare false both ways and heapq's pops hang on its heap's
 * shape, so last starts at all ones: every pair files into bucket 0,
 * which is then heapq's heap, pop for pop. */
static int best_first(Piece *pieces, long na, long nb, Key *heap, Pair *pairs, double sx,
                      double sy, double tol, long budget, double *gap, Pair *won, long *made)
{
    Search s = {pieces, heap, pairs, 0, 0, sx, sy, 0, 0, {0}};
    long n = na + nb, k;
    int c;

    for (k = 0; k < n; k++)
        for (c = 0; c < 8; c++)
            if (!(fabs(pieces[k].v[c]) <= 0x1p1022))
                s.last = UINT64_MAX;
    for (k = 0; k < na * nb; k++)
        push(&s, k / nb, na + k % nb);
    for (k = 0; k < budget && (s.size > 0 || s.full); k++) {
        Key e = pop(&s);
        Pair p = pairs[e.tick];
        Piece *pa = &pieces[p.a], *pb = &pieces[p.b];
        double da = diagonal(pa), db = diagonal(pb);
        if (da < tol && db < tol) {
            *gap = e.gap;
            *won = p;
            *made = n - na - nb;
            return 1;
        }
        if (da >= db) {
            if (pa->half < 0) {
                split(pieces, p.a, n);
                n += 2;
            }
            push(&s, pa->half, p.b);
            push(&s, pa->half + 1, p.b);
        } else {
            if (pb->half < 0) {
                split(pieces, p.b, n);
                n += 2;
            }
            push(&s, p.a, pb->half);
            push(&s, p.a, pb->half + 1);
        }
    }
    *made = n - na - nb;
    return 0;
}


/* an operation of a lowered program, as surface._OPCODES numbers them */
enum {
    OP_VAR, OP_CONST, OP_NEG, OP_ABS, OP_SQRT, OP_SIN, OP_COS, OP_TAN,
    OP_EXP, OP_LOG, OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_POW
};

/* expr._compile's operation list: operation k is code[k] on the values
 * of operations arg[2k] and arg[2k + 1]; a variable reads argument
 * arg[2k] of the call, a constant is val[k].  The call gives the
 * values of the nout operations out. */
typedef struct {
    long n;
    const long *code;
    const long *arg;
    const double *val;
    long nout;
    const long *out;
} Program;

/* fn(x) as math_1 calls it: sets *raised where it raises */
static double math_1(double (*fn)(double), double x, int *raised)
{
    double r = fn(x);
    if ((isnan(r) && !isnan(x)) || (isinf(r) && isfinite(x)))
        *raised = 1;
    return r;
}

/* p's scalar call on args, its values in out[0:p->nout], with t[0:p->n]
 * the scratch row: 0, or 1 where the call raises DomainError */
int program_run(const Program *p, const double *args, double *out, double *t)
{
    long k;
    for (k = 0; k < p->n; k++) {
        const long *arg = p->arg + 2 * k;
        double a = 0.0, b = 0.0, r;
        int raised = 0;
        if (p->code[k] > OP_CONST) {
            a = t[arg[0]];
            b = t[arg[1]];
        }
        switch (p->code[k]) {
        case OP_VAR: r = args[arg[0]]; break;
        case OP_CONST: r = p->val[k]; break;
        case OP_NEG: r = -a; break;
        case OP_ABS: r = fabs(a); break;
        case OP_SQRT: r = math_1(sqrt, a, &raised); break;
        case OP_SIN: r = math_1(sin, a, &raised); break;
        case OP_COS: r = math_1(cos, a, &raised); break;
        case OP_TAN: r = math_1(tan, a, &raised); break;
        case OP_EXP: r = math_1(exp, a, &raised); break;
        case OP_LOG: r = math_1(log, a, &raised); break;
        case OP_ADD: r = a + b; break;
        case OP_SUB: r = a - b; break;
        case OP_MUL: r = a * b; break;
        case OP_DIV:
            raised = b == 0.0;
            r = a / b;
            break;
        case OP_POW:
            r = pow(a, b);
            raised = isfinite(a) && isfinite(b) && !isfinite(r);
            break;
        default: return 1;
        }
        if (raised)
            return 1;
        t[k] = r;
    }
    for (k = 0; k < p->nout; k++) {
        out[k] = t[p->out[k]];
        if (!isfinite(out[k]))
            return 1;
    }
    return 0;
}

/* the solve's fixed terms: lim the bounds (u low, u high, v low, v high)
 * a step must stay within, tol the residual that ends it */
typedef struct {
    const Program *f, *df;
    const double *lim;
    double qx, qy, tol;
    long max_iter;
} Solve;

/* OcclusionTester._newton from (uv[0], uv[1]): 1 with the root in uv,
 * else 0 */
static int newton(const Solve *s, double *uv, double *t)
{
    const double *lim = s->lim;
    double u = uv[0], v = uv[1], xy[2], p[4], gx, gy, err;
    long it;

    if (program_run(s->f, (double[]){u, v}, xy, t))
        return 0;
    gx = xy[0] - s->qx;
    gy = xy[1] - s->qy;
    err = py_hypot(gx, gy);
    for (it = 0; it < s->max_iter; it++) {
        double det, du, dv, lam;
        int stepped = 0;
        if (err <= s->tol)
            break;
        if (program_run(s->df, (double[]){u, v}, p, t))
            return 0;
        det = p[0] * p[3] - p[1] * p[2];
        if (fabs(det) < 1e-300)
            return 0;
        du = (p[3] * gx - p[1] * gy) / det;
        dv = (p[0] * gy - p[2] * gx) / det;
        for (lam = 1.0; lam >= 1.0 / 64.0; lam *= 0.5) {
            double nu = u - lam * du, nv = v - lam * dv, ngx, ngy, nerr;
            if (!(lim[0] <= nu && nu <= lim[1] && lim[2] <= nv && nv <= lim[3]))
                continue;
            if (program_run(s->f, (double[]){nu, nv}, xy, t)) {
                ngx = ngy = INFINITY;
            } else {
                ngx = xy[0] - s->qx;
                ngy = xy[1] - s->qy;
            }
            nerr = py_hypot(ngx, ngy);
            if (nerr < err) {
                u = nu;
                v = nv;
                gx = ngx;
                gy = ngy;
                err = nerr;
                stepped = 1;
                break;
            }
        }
        if (!stepped)
            return 0;
    }
    if (!(err <= s->tol))
        return 0;
    uv[0] = u;
    uv[1] = v;
    return 1;
}

/* OcclusionTester's fixed terms: its n seed cells that are defined, in
 * np.argwhere's order, with cell k's padded box box[4k:4k + 4] = (x
 * low, x high, y low, y high) and its Newton start start[2k],
 * start[2k + 1]; f the surface's program of (X, Y) and df its program
 * of (X_u, X_v, Y_u, Y_v); lim the bounds a step must stay within;
 * range[0:4] the parameter ranges (u low, u high, v low, v high) and
 * range[4:8] those widened by 1e-9 of their spans, as covers keeps a
 * root; tol the residual that ends a solve */
typedef struct {
    const Program *f, *df;
    long n;
    const double *box, *start, *lim, *range;
    double tol;
    long max_iter;
} Tester;

/* OcclusionTester.covers of (qx, qy): _newton from the start of each
 * cell whose box holds the point, each root inside the widened ranges
 * clamped to the ranges and kept unless within 1e-7 of one kept
 * before, in start order.  The kept roots go to roots[0:2 * counts[0]],
 * counts[1] is the count of cells tried.  Returns 0, or -1 when memory
 * runs out. */
int occlusion_covers(const Tester *c, double qx, double qy, double *roots, long *counts)
{
    Solve s = {c->f, c->df, c->lim, qx, qy, c->tol, c->max_iter};
    const double *r = c->range;
    double *t = malloc(sizeof(double) * (size_t)(c->f->n > c->df->n ? c->f->n : c->df->n));
    long k, q, kept = 0, tried = 0;

    if (t == NULL)
        return -1;
    for (k = 0; k < c->n; k++) {
        const double *b = c->box + 4 * k;
        double uv[2] = {c->start[2 * k], c->start[2 * k + 1]}, u, v;
        if (!(b[0] <= qx && qx <= b[1] && b[2] <= qy && qy <= b[3]))
            continue;
        tried++;
        if (!newton(&s, uv, t))
            continue;
        u = uv[0];
        v = uv[1];
        if (!(r[4] <= u && u <= r[5] && r[6] <= v && v <= r[7]))
            continue;
        /* min(max(u, low), high), as Python's min and max pick */
        u = r[0] > u ? r[0] : u;
        u = r[1] < u ? r[1] : u;
        v = r[2] > v ? r[2] : v;
        v = r[3] < v ? r[3] : v;
        for (q = 0; q < kept; q++)
            if (py_hypot(u - roots[2 * q], v - roots[2 * q + 1]) <= 1e-7)
                break;
        if (q < kept)
            continue;
        roots[2 * kept] = u;
        roots[2 * kept + 1] = v;
        kept++;
    }
    free(t);
    counts[0] = kept;
    counts[1] = tried;
    return 0;
}


/* frexp's exponent of m, and 0 for 0, infinities and NaN, as np.frexp
 * gives it */
static int exponent(double m)
{
    int e = 0;
    if (isfinite(m) && m != 0.0)
        frexp(m, &e);
    return e;
}

/* surface._pow2_scale: np.maximum gives NaN where either is NaN */
static double pow2_scale(double x, double y)
{
    double m = isnan(x) || isnan(y) ? NAN : fmax(fabs(x), fabs(y));
    return ldexp(1.0, exponent(m) - 1);
}

/* surface._feet of the point (px, py) on the segment (bx, by) ->
 * (ex, ey): the clamped fraction in *t, the distance returned */
static double foot(double px, double py, double bx, double by, double ex, double ey,
                   double *t)
{
    double sx = ex - bx, sy = ey - by;
    double scale = pow2_scale(sx, sy);
    double ux = sx / scale, uy = sy / scale;
    double unit_len2 = ux * ux + uy * uy;
    double dx = px - bx, dy = py - by;
    double d_scale = pow2_scale(dx, dy);
    double f, ox, oy, r;
    if (unit_len2 == 0.0)
        unit_len2 = 1.0;
    f = ldexp((dx / d_scale * ux + dy / d_scale * uy) / unit_len2,
              exponent(d_scale) - exponent(scale));
    /* np.clip: NaN stays, and so does -0.0 */
    if (f < 0.0)
        f = 0.0;
    else if (f > 1.0)
        f = 1.0;
    *t = f;
    ox = px - (bx + f * sx);
    oy = py - (by + f * sy);
    r = pow2_scale(ox, oy);
    ox = ox / r;
    oy = oy / r;
    return sqrt(ox * ox + oy * oy) * r;
}

/* surface._meet of the lines p + t*r and q + s*w: t and s, a t that is
 * not finite where they are parallel */
static void meet(double px, double py, double rx, double ry, double qx, double qy,
                 double wx, double wy, double *t, double *s)
{
    double v[6] = {rx, ry, wx, wy, qx - px, qy - py}, big = 0.0, denom;
    int k, e, nan = 0;
    for (k = 0; k < 6; k++) {
        nan |= isnan(v[k]);
        big = fabs(v[k]) > big ? fabs(v[k]) : big;
    }
    /* np.max is NaN where any is NaN, and frexp's exponent of NaN 0 */
    e = nan ? 0 : -exponent(big);
    for (k = 0; k < 6; k++)
        v[k] = ldexp(v[k], e);
    denom = v[0] * v[3] - v[1] * v[2];
    *t = (v[4] * v[3] - v[5] * v[2]) / denom;
    *s = (v[4] * v[1] - v[5] * v[0]) / denom;
}

/* a segment's closed box, as surface._segment_boxes gives it */
typedef struct {
    double lo[2], hi[2];
} Box;

static int box_of(const double *p, const double *q, Box *b)
{
    int k;
    for (k = 0; k < 2; k++) {
        if (isnan(p[k]) || isnan(q[k]))
            return 0; /* no comparison with a NaN bound holds */
        b->lo[k] = p[k] < q[k] ? p[k] : q[k];
        b->hi[k] = p[k] > q[k] ? p[k] : q[k];
    }
    return 1;
}

/* b's segment boxes sorted by x low, for the sort and sweep of
 * surface._pair_blocks (Shamos & Hoey, FOCS 1976): slot[k] holds one
 * box and its segment's index, reach[k] the largest x high of slot[0]
 * to slot[k].  A box with a NaN bound meets nothing and is left out. */
typedef struct {
    Box box;
    long j;
} Slot;

typedef struct {
    long n;
    Slot *slot;
    double *reach;
} Sweep;

static int by_x_low(const void *x, const void *y)
{
    double a = ((const Slot *)x)->box.lo[0], b = ((const Slot *)y)->box.lo[0];
    return (a > b) - (a < b);
}

static int by_index(const void *x, const void *y)
{
    long a = *(const long *)x, b = *(const long *)y;
    return (a > b) - (a < b);
}

/* the indices of the boxes of w that meet [lo, hi], ascending, in out */
static long meeting(const Sweep *w, const double lo[2], const double hi[2], long *out)
{
    long a = 0, b = w->n, stop, k, n = 0;
    /* the first box whose running x high reaches lo[0] ... */
    while (a < b) {
        long mid = a + (b - a) / 2;
        if (w->reach[mid] >= lo[0])
            b = mid;
        else
            a = mid + 1;
    }
    /* ... to the last whose x low is not past hi[0] */
    stop = w->n;
    for (b = a; b < stop;) {
        long mid = b + (stop - b) / 2;
        if (w->slot[mid].box.lo[0] > hi[0])
            stop = mid;
        else
            b = mid + 1;
    }
    for (k = a; k < stop; k++) {
        const Box *x = &w->slot[k].box;
        if (lo[0] <= x->hi[0] && x->lo[0] <= hi[0] && lo[1] <= x->hi[1] && x->lo[1] <= hi[1])
            out[n++] = w->slot[k].j;
    }
    if (n < 16) {
        for (k = 1; k < n; k++) {
            long j = out[k], q = k;
            for (; q > 0 && out[q - 1] > j; q--)
                out[q] = out[q - 1];
            out[q] = j;
        }
    } else {
        qsort(out, (size_t)n, sizeof *out, by_index);
    }
    return n;
}

/* a crossing of segment i of a with segment j of b: the fractions t
 * along i and s along j, and the point a[i] + t * (a[i + 1] - a[i]) */
typedef struct {
    long i, j;
    double t, s, x, y;
} Hit;

/* a contact site: vertex i of a lies dist from segment j of b, at the
 * fraction t along j */
typedef struct {
    double dist;
    long i, j;
    double t;
} Site;

/* the listed pairs of vertex i: their segments j, ascending, their
 * distances and their fractions */
typedef struct {
    long n, *j;
    double *dist, *t;
} Row;

/* whether no listed pair of rows[0:nrows] within segments j - 2 to
 * j + 2 lies nearer than dist: where one lies at NaN, np.min's NaN
 * fails the test */
static int lowest(const Row *rows, int nrows, long j, double dist)
{
    int r;
    for (r = 0; r < nrows; r++) {
        const Row *row = &rows[r];
        long a = 0, b = row->n;
        while (a < b) {
            long mid = a + (b - a) / 2;
            if (row->j[mid] < j - 2)
                a = mid + 1;
            else
                b = mid;
        }
        for (; a < row->n && row->j[a] <= j + 2; a++)
            if (!(dist <= row->dist[a]))
                return 0;
    }
    return 1;
}

/* intersect_projected's scan of the polylines a (na points) and b (nb):
 * the crossings of surface._meet, and with self_mode unset the contact
 * sites of surface._contact_sites, with their float operations.
 *
 * Every pair of segment i of a and segment j of b whose boxes meet
 * (j >= i + 2 with self_mode) whose lines meet at t and s in [0, 1] is
 * a hit, in row-major order.  Every pair of vertex i of a and segment j
 * of b whose boxes lie within 2*tol is listed, with the distance of
 * the vertex to the segment; a listed pair under tol that no listed
 * pair of vertex i +-2 and segment j +-2 lies nearer is a site, in
 * row-major order.  Vertex i's pairs are held until those of i + 2 are
 * in, so the memory grows with b's length, not with the pairs.
 *
 * The first hit_cap hits go to hits and the first site_cap sites to
 * sites; counts[0] and counts[1] are the counts of all.  Returns 0, or
 * -1 when memory runs out. */
int intersect_scan(const double *a, long na, const double *b, long nb, int self_mode,
                   double tol, Hit *hits, long hit_cap, Site *sites, long site_cap,
                   long *counts)
{
    long m = nb - 1, rows_m = self_mode ? 0 : m, i, k, nh = 0, ns = 0;
    /* the sweep, one row of candidates, and five rows of listed pairs */
    size_t bytes = (size_t)m * (sizeof(Slot) + sizeof(double) + sizeof(long))
                   + (size_t)(5 * rows_m) * (sizeof(long) + 2 * sizeof(double));
    Slot *slot = malloc(bytes);
    Sweep w = {0, slot, (double *)(slot + m)};
    long *near = (long *)(w.reach + m);
    Row rows[5];
    Box qb;
    double pad = 2.0 * tol;

    if (slot == NULL)
        return -1;
    for (k = 0; k < 5; k++) {
        rows[k].j = near + m + k * rows_m;
        rows[k].dist = (double *)(near + m + 5 * rows_m) + 2 * k * rows_m;
        rows[k].t = rows[k].dist + rows_m;
    }
    for (k = 0; k < m; k++)
        if (box_of(b + 2 * k, b + 2 * k + 2, &slot[w.n].box))
            slot[w.n++].j = k;
    qsort(slot, (size_t)w.n, sizeof *slot, by_x_low);
    for (k = 0; k < w.n; k++) {
        double x = slot[k].box.hi[0];
        w.reach[k] = k > 0 && w.reach[k - 1] > x ? w.reach[k - 1] : x;
    }

    for (i = 0; i + 1 < na; i++) {
        const double *p = a + 2 * i;
        long n;
        if (!box_of(p, p + 2, &qb))
            continue;
        n = meeting(&w, qb.lo, qb.hi, near);
        for (k = 0; k < n; k++) {
            long j = near[k];
            const double *q = b + 2 * j;
            double t, s;
            if (self_mode && j < i + 2)
                continue;
            meet(p[0], p[1], p[2] - p[0], p[3] - p[1], q[0], q[1], q[2] - q[0], q[3] - q[1],
                 &t, &s);
            if (!(0.0 <= t && t <= 1.0 && 0.0 <= s && s <= 1.0))
                continue;
            if (nh < hit_cap)
                hits[nh] = (Hit){i, j, t, s, p[0] + t * (p[2] - p[0]), p[1] + t * (p[3] - p[1])};
            nh++;
        }
    }

    if (!self_mode) {
        /* vertex i's pairs, then the sites of vertex i - 2 */
        for (i = 0; i < na + 2; i++) {
            long c = i - 2;
            if (i < na) {
                const double *p = a + 2 * i;
                double lo[2] = {p[0] - pad, p[1] - pad}, hi[2] = {p[0] + pad, p[1] + pad};
                Row *row = &rows[i % 5];
                row->n = 0;
                if (!isnan(lo[0]) && !isnan(lo[1]) && !isnan(hi[0]) && !isnan(hi[1]))
                    row->n = meeting(&w, lo, hi, row->j);
                for (k = 0; k < row->n; k++) {
                    const double *q = b + 2 * row->j[k];
                    row->dist[k] = foot(p[0], p[1], q[0], q[1], q[2], q[3], &row->t[k]);
                }
            }
            if (c >= 0 && c < na) {
                long first = c > 2 ? c - 2 : 0, last = c + 2 < na - 1 ? c + 2 : na - 1;
                Row window[5];
                const Row *row = &rows[c % 5];
                for (k = first; k <= last; k++)
                    window[k - first] = rows[k % 5];
                for (k = 0; k < row->n; k++) {
                    if (!(row->dist[k] < tol)
                        || !lowest(window, (int)(last - first + 1), row->j[k], row->dist[k]))
                        continue;
                    if (ns < site_cap)
                        sites[ns] = (Site){row->dist[k], c, row->j[k], row->t[k]};
                    ns++;
                }
            }
        }
    }
    free(slot);
    counts[0] = nh;
    counts[1] = ns;
    return 0;
}


/* row k of the open fit's extended points: the virtual head, pts[0:n],
 * the virtual tail */
static const double *ext_row(const double *pts, long n, const double *head,
                             const double *tail, long k)
{
    return k == 0 ? head : k == n + 1 ? tail : pts + 2 * (k - 1);
}

/* spline.build_spline(pts, OSHIMA, closed=False) of the n rows pts, with
 * the float operations of build_spline and _oshima_columns in the same
 * order: its n - 1 control rows (p0, c0, c1, p1) in ctrl[0:8 * (n - 1)],
 * and 0; 1, writing nothing defined, where build_spline raises
 * DegenerateGeometryError. */
int oshima_fit(const double *pts, long n, double *ctrl)
{
    double head[2], tail[2], n1, n2 = 0.0;
    long j, k;

    if (n < 2)
        return 1;
    for (j = 1; j < n && pts[2 * j] == pts[0] && pts[2 * j + 1] == pts[1]; j++)
        ;
    if (j == n)
        return 1; /* all input points coincide */
    /* the parabola through the three end points continued a step, or
     * the reflection when there are two */
    for (k = 0; k < 2; k++) {
        const double *end = pts + 2 * (n - 1) + k;
        if (n >= 3) {
            head[k] = pts[k] * 3.0 - pts[2 + k] * 3.0 + pts[4 + k];
            tail[k] = end[0] * 3.0 - end[-2] * 3.0 + end[-4];
        } else {
            head[k] = pts[k] * 2.0 - pts[2 + k];
            tail[k] = end[0] * 2.0 - end[-2];
        }
    }
    for (j = 0; j < n - 1; j++) {
        const double *pm1 = ext_row(pts, n, head, tail, j);
        const double *pj = ext_row(pts, n, head, tail, j + 1);
        const double *pjp1 = ext_row(pts, n, head, tail, j + 2);
        const double *pjp2 = ext_row(pts, n, head, tail, j + 3);
        double x1 = pjp1[0] - pm1[0], y1 = pjp1[1] - pm1[1];
        double x2 = pjp2[0] - pj[0], y2 = pjp2[1] - pj[1];
        double span, norm, cos_theta, ratio, c;
        double *row = ctrl + 8 * j;
        /* chord 2 of segment j is chord 1 of segment j + 1 */
        n1 = j == 0 ? py_hypot(x1, y1) : n2;
        n2 = py_hypot(x2, y2);
        span = py_hypot(pjp1[0] - pj[0], pjp1[1] - pj[1]);
        row[0] = pj[0];
        row[1] = pj[1];
        row[6] = pjp1[0];
        row[7] = pjp1[1];
        if (n1 == 0.0 && n2 == 0.0) {
            if (!(pj[0] == pjp1[0] && pj[1] == pjp1[1]))
                return 1; /* both chord vectors are zero */
            /* four coincident points: the segment is that single point */
            for (k = 2; k < 6; k++)
                row[k] = pj[k % 2];
            continue;
        }
        norm = n1 * n2;
        cos_theta = (x1 * x2 + y1 * y2) / norm;
        if (norm == 0.0) /* tiny chords: the unit chords' product does not underflow */
            cos_theta = x1 / n1 * (x2 / n2) + y1 / n1 * (y2 / n2);
        /* one chord zero: theta is taken as 0; NaN reads as 1 too */
        if (n1 == 0.0 || n2 == 0.0 || isnan(cos_theta))
            cos_theta = 1.0;
        if (cos_theta < -1.0)
            cos_theta = -1.0;
        else if (cos_theta > 1.0)
            cos_theta = 1.0;
        ratio = 4.0 * span / (3.0 * (n1 + n2));
        c = ratio / (1.0 + sqrt((1.0 + cos_theta) / 2.0));
        if (span == 0.0)
            c = 0.0;
        row[2] = pj[0] + x1 * c;
        row[3] = pj[1] + y1 * c;
        row[4] = pjp1[0] + (pj[0] - pjp2[0]) * c;
        row[5] = pjp1[1] + (pj[1] - pjp2[1]) * c;
    }
    return 0;
}

/* refine_contact's bail-out: whether every vertex of the window a (na
 * rows) lies within lim of some segment of the window b (nb rows).  A
 * NaN distance fails it, as np.min's NaN fails the test. */
static int overlapping(const double *a, long na, const double *b, long nb, double lim)
{
    long i, j;
    for (i = 0; i < na; i++) {
        int near = 0;
        for (j = 0; j + 1 < nb; j++) {
            double t, d = foot(a[2 * i], a[2 * i + 1], b[2 * j], b[2 * j + 1], b[2 * j + 2],
                               b[2 * j + 3], &t);
            if (isnan(d))
                return 0;
            near |= d <= lim;
        }
        if (!near)
            return 0;
    }
    return 1;
}

/* _in_boxes for one fit: whether (x, y) lies in the box around its n
 * pieces, the extremes kept as Python's min and max keep them */
static int in_box(double x, double y, const Piece *p, long n)
{
    double lo[2] = {p[0].v[8], p[0].v[9]}, hi[2] = {p[0].v[10], p[0].v[11]};
    long k;
    int c;
    for (k = 1; k < n; k++)
        for (c = 0; c < 2; c++) {
            lo[c] = p[k].v[8 + c] < lo[c] ? p[k].v[8 + c] : lo[c];
            hi[c] = p[k].v[10 + c] > hi[c] ? p[k].v[10 + c] : hi[c];
        }
    return lo[0] <= x && x <= hi[0] && lo[1] <= y && y <= hi[1];
}

/* the rows [*lo, *hi) of the window of half-width window around center
 * in n rows, as the slice [max(0, center - window) : center + window + 1] */
static void window_rows(long center, long window, long n, long *lo, long *hi)
{
    *lo = window < center ? center - window : 0;
    *hi = window < n - center ? center + window + 1 : n;
}

/* surface.refine_contact of the polylines a (na rows) and b (nb) at the
 * site (ca, cb), whole: the windows, their fits, the bail-out, the
 * best-first search of at most budget pops and the answer, with the
 * Python path's float operations.  Returns 1 with the refined point in
 * point[0:2], 0 with the site's seed there, -1 when memory runs out,
 * and -2, reading nothing, when a center lies outside its polyline or
 * window is negative.  *made is the count of pieces the search's splits
 * made, 0 where none ran. */
int refine_contact(const double *a, long na, long ca, const double *b, long nb, long cb,
                   long window, double tol, long budget, double *point, long *made)
{
    long a0, a1, b0, b1, ma, mb, k;
    double span = 1e-12, mx, my;
    size_t ctrl_bytes, piece_bytes, pushes;
    double *ctrl, gap = 0.0;
    Piece *pieces, *pa, *pb;
    Key *heap;
    Pair won = {0};
    int found;

    if (ca < 0 || ca >= na || cb < 0 || cb >= nb || window < 0)
        return -2;
    point[0] = (a[2 * ca] + b[2 * cb]) * 0.5;
    point[1] = (a[2 * ca + 1] + b[2 * cb + 1]) * 0.5;
    *made = 0;
    window_rows(ca, window, na, &a0, &a1);
    window_rows(cb, window, nb, &b0, &b1);
    ma = a1 - a0 - 1;
    mb = b1 - b0 - 1;
    if (ma < 1 || mb < 1)
        return 0;
    /* one block for the fits, the pieces, the heap and the pairs */
    ctrl_bytes = (size_t)(8 * (ma + mb)) * sizeof(double);
    piece_bytes = (size_t)(ma + mb + 2 * budget) * sizeof(Piece);
    pushes = (size_t)(ma * mb + 2 * budget);
    ctrl = malloc(ctrl_bytes + piece_bytes + pushes * (sizeof(Key) + sizeof(Pair)));
    if (ctrl == NULL)
        return -1;
    pieces = (Piece *)((char *)ctrl + ctrl_bytes);
    heap = (Key *)((char *)pieces + piece_bytes);
    found = !oshima_fit(a + 2 * a0, ma + 1, ctrl) && !oshima_fit(b + 2 * b0, mb + 1, ctrl + 8 * ma)
            /* overlapping windows (a curve drawn twice, grazing duplicates)
             * never separate under subdivision */
            && !overlapping(a + 2 * a0, ma + 1, b + 2 * b0, mb + 1, 10.0 * tol);
    if (found) {
        for (k = 0; k < ma + mb; k++) {
            const double *c = ctrl + 8 * k;
            make_piece(&pieces[k], c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]);
        }
        found = best_first(pieces, ma, mb, heap, (Pair *)(heap + pushes), point[0], point[1],
                           tol, budget, &gap, &won, made);
    }
    if (found) {
        /* a gap over a percent of the window size is no contact */
        for (k = 0; k < ma; k++) {
            const double *v = pieces[k].v;
            span = v[10] - v[8] > span ? v[10] - v[8] : span;
            span = v[11] - v[9] > span ? v[11] - v[9] : span;
        }
        found = !(gap > 0.01 * (1.0 + span));
    }
    if (found) {
        pa = &pieces[won.a];
        pb = &pieces[won.b];
        mx = 0.25 * (pa->v[8] + pa->v[10] + pb->v[8] + pb->v[10]);
        my = 0.25 * (pa->v[9] + pa->v[11] + pb->v[9] + pb->v[11]);
        point[0] = mx;
        point[1] = my;
        if (gap == 0.0) {
            /* where the lines through the chords meet (nowhere if parallel) */
            double px = pa->v[0], py = pa->v[1], rx = pa->v[6] - px, ry = pa->v[7] - py;
            double qx = pb->v[0], qy = pb->v[1], t, s, x, y;
            meet(px, py, rx, ry, qx, qy, pb->v[6] - qx, pb->v[7] - qy, &t, &s);
            x = px + t * rx;
            y = py + t * ry;
            if (py_hypot(x - mx, y - my) <= 10.0 * tol && in_box(x, y, pieces, ma)
                && in_box(x, y, pieces + ma, mb)) {
                point[0] = x;
                point[1] = y;
            }
        }
    }
    free(ctrl);
    return found;
}
