/* The compiled event kernel: the flip rule (cek_grow), the infection loop
 * (cek_run), its sweep over many arrow rates at once (cek_levels) and that
 * sweep over many independent-edge environments at once (cek_scan) of
 * contactenv.engine, reading a Timeline's four buffers (times float64,
 * kinds int8, idx int32, marks float64) in place.
 *
 * All four make the same double comparisons as the plain-Python kernel in
 * reference.py, so their outputs are bit-identical to its: build with
 * -ffp-contract=off and without -ffast-math.  Every buffer is owned by the
 * caller, which checks lengths and offsets before each call (kernel.py).
 */

#include <math.h>
#include <stdint.h>

#define KIND_ARROW 0
#define KIND_RECOVERY 1
#define KIND_FLIP 2

const char *cek_compiler(void) { return __VERSION__; }

/* Sweep the environment through feed offsets lo..hi-1.  Feed offset k is
 * table index k, or rev_top - k on a reversed feed (rev_top >= 0), whose
 * times are anchor - times[i].  flags[k] is set to the state, just before
 * it, of an arrow's edge.  A flip candidate on edge x with mark u closes an
 * open edge if (1 - u) q <= down[open neighbours of x], and opens a closed
 * one if u q < up[open neighbours]; has_rule 0 applies no flips.  Each flip
 * is written to d_time, d_edge, d_sign and d_at (its feed offset), which
 * hold hi - lo entries; returns their number. */
int64_t cek_grow(const double *times, const int8_t *kinds, const int32_t *idx,
                 const double *marks, int64_t lo, int64_t hi, int64_t rev_top,
                 double anchor, const int32_t *dir_edge, const int32_t *lptr,
                 const int32_t *lnbr, const double *up, const double *down,
                 double q_rate, int has_rule, uint8_t *edges, uint8_t *open_nbrs,
                 uint8_t *flags, double *d_time, int32_t *d_edge, int8_t *d_sign,
                 int32_t *d_at)
{
    int64_t n = 0;
    for (int64_t k = lo; k < hi; k++) {
        int64_t i = rev_top >= 0 ? rev_top - k : k;
        int kind = kinds[i];
        if (kind == KIND_ARROW) {
            flags[k] = edges[dir_edge[idx[i]]];
        } else if (kind == KIND_FLIP && has_rule) {
            int32_t x = idx[i];
            double u = marks[i];
            int sign = 0;
            if (edges[x]) {
                if ((1.0 - u) * q_rate <= down[open_nbrs[x]])
                    sign = -1;
            } else if (u * q_rate < up[open_nbrs[x]]) {
                sign = 1;
            }
            if (sign) {
                edges[x] = sign > 0;
                for (int32_t a = lptr[x]; a < lptr[x + 1]; a++)
                    open_nbrs[lnbr[a]] += sign;
                d_time[n] = rev_top >= 0 ? anchor - times[i] : times[i];
                d_edge[n] = x;
                d_sign[n] = (int8_t)sign;
                d_at[n] = (int32_t)k;
                n++;
            }
        }
    }
    return n;
}

/* One stretch of an infection run: table indices lo..hi-1, forward, or
 * from hi - 1 down to lo when rev, at time anchor - times[i], where the
 * caller passes src and dst swapped.  The run ends at the first event
 * whose time exceeds t_cut.  An arrow's edge is open if flags[flag_top - i]
 * (flag_top >= 0), flags[i] (flag_top < 0) or, without flags, edges[edge].
 * infected (one byte per site) and state (infected count, boundary
 * touched, extinct) carry the run between calls; *tau is set when a
 * recovery empties the infected set, after which the run stops and sets
 * state[2].  Site deltas go to o_time, o_site and o_sign, which hold
 * hi - lo entries; returns their number. */
int64_t cek_run(const double *times, const int8_t *kinds, const int32_t *idx,
                const double *marks, int64_t lo, int64_t hi, int rev, double anchor,
                double t_cut, const int32_t *src, const int32_t *dst,
                const int32_t *dir_edge, const int32_t *norm_inf, int32_t half_width,
                double lam_frac, double r_frac, double eman_limit, double entry_limit,
                double no_arrows_until, double free_until, double no_recs_until,
                const uint8_t *flags, int64_t flag_top, const uint8_t *edges,
                uint8_t *infected, int64_t *state, double *tau, int want_deltas,
                double *o_time, int32_t *o_site, int8_t *o_sign)
{
    int64_t n_inf = state[0];
    int btouch = (int)state[1];
    int thin_arrows = lam_frac < 1.0, thin_recs = r_frac < 1.0;
    int suppress_arrows = no_arrows_until > 0.0, suppress_recs = no_recs_until > 0.0;
    int free_phase = free_until > 0.0;
    int64_t n = 0;
    int64_t step = rev ? -1 : 1;
    int64_t i = rev ? hi - 1 : lo, end = rev ? lo - 1 : hi;
    for (; i != end; i += step) {
        int kind = kinds[i];
        if (kind == KIND_ARROW) {
            int32_t j = idx[i];
            int32_t s = src[j];
            if (!infected[s])
                continue;
            if (thin_arrows && marks[i] >= lam_frac)
                continue;
            if (norm_inf[s] >= eman_limit)
                continue;
            int32_t d = dst[j];
            if (infected[d])
                continue;
            double t = rev ? anchor - times[i] : times[i];
            if (t > t_cut)
                break;
            if (suppress_arrows && t <= no_arrows_until)
                continue;
            int open = flags ? flags[flag_top >= 0 ? flag_top - i : i] : edges[dir_edge[j]];
            if (!open && !(free_phase && t <= free_until))
                continue;
            if (norm_inf[d] >= entry_limit)
                continue;
            infected[d] = 1;
            n_inf++;
            if (norm_inf[d] >= half_width)
                btouch = 1;
            if (want_deltas) {
                o_time[n] = t;
                o_site[n] = d;
                o_sign[n] = 1;
                n++;
            }
        } else if (kind == KIND_RECOVERY) {
            if (thin_recs && marks[i] >= r_frac)
                continue;
            int32_t s = idx[i];
            if (!infected[s])
                continue;
            double t = rev ? anchor - times[i] : times[i];
            if (t > t_cut)
                break;
            if (suppress_recs && t <= no_recs_until)
                continue;
            infected[s] = 0;
            n_inf--;
            if (want_deltas) {
                o_time[n] = t;
                o_site[n] = s;
                o_sign[n] = -1;
                n++;
            }
            if (!n_inf) {
                *tau = t;
                state[2] = 1;
                break;
            }
        }
    }
    state[0] = n_inf;
    state[1] = btouch;
    return n;
}

/* One stretch of a levels sweep over table indices lo..hi-1, forward: the
 * runs of cek_run that emanate below half_width, at arrow fractions
 * fracs[0] <= ... <= fracs[n_fracs - 1] and recovery fraction r_frac, all
 * at once.  level[x] (INFINITY: healthy) places site x in the infected set
 * of the run at f exactly when level[x] < f: an arrow x -> y with mark u
 * whose edge is open sets level[y] = min(level[y], max(level[x], u)), and a
 * recovery kept at r_frac sets level[x] = INFINITY.  The least level never
 * falls, so the runs die in the order of their fractions: state is (runs
 * extinct, sites below the lowest live fraction), and taus[k] is set to the
 * time of the recovery after which no level is below fracs[k].  touch[0] is
 * the least level written to a site of norm half_width or more.  Flags and
 * edges are read as by cek_run, forward.  Returns the number of runs
 * extinct; the sweep stops when all are. */
int64_t cek_levels(const double *times, const int8_t *kinds, const int32_t *idx,
                   const double *marks, int64_t lo, int64_t hi, const int32_t *src,
                   const int32_t *dst, const int32_t *dir_edge, const int32_t *norm_inf,
                   int32_t half_width, int32_t n_sites, const double *fracs,
                   int64_t n_fracs, double r_frac, const uint8_t *flags,
                   const uint8_t *edges, double *level, int64_t *state, double *touch,
                   double *taus)
{
    int64_t dead = state[0], n_low = state[1];
    if (dead >= n_fracs)
        return dead;
    double f_top = fracs[n_fracs - 1], f_low = fracs[dead], t_low = touch[0];
    int thin_arrows = f_top < 1.0, thin_recs = r_frac < 1.0;
    for (int64_t i = lo; i < hi; i++) {
        int kind = kinds[i];
        if (kind == KIND_ARROW) {
            int32_t j = idx[i];
            int32_t s = src[j];
            double ls = level[s];
            if (ls >= f_top)
                continue;
            double u = marks[i];
            if (thin_arrows && u >= f_top)
                continue;
            if (norm_inf[s] >= half_width)
                continue;
            int32_t d = dst[j];
            double v = ls > u ? ls : u;
            if (v >= level[d])
                continue;
            if (!(flags ? flags[i] : edges[dir_edge[j]]))
                continue;
            if (v < f_low && level[d] >= f_low)
                n_low++;
            level[d] = v;
            if (norm_inf[d] >= half_width && v < t_low)
                t_low = v;
        } else if (kind == KIND_RECOVERY) {
            if (thin_recs && marks[i] >= r_frac)
                continue;
            int32_t x = idx[i];
            double lx = level[x];
            if (lx == INFINITY)
                continue;
            level[x] = INFINITY;
            if (lx < f_low && --n_low == 0) {
                double least = INFINITY;
                for (int32_t y = 0; y < n_sites; y++)
                    if (level[y] < least)
                        least = level[y];
                while (dead < n_fracs && fracs[dead] <= least)
                    taus[dead++] = times[i];
                if (dead == n_fracs)
                    break;
                f_low = fracs[dead];
                for (int32_t y = 0; y < n_sites; y++)
                    n_low += level[y] < f_low;
            }
        }
    }
    state[0] = dead;
    state[1] = n_low;
    touch[0] = t_low;
    return dead;
}

/* One stretch of a scan over table indices lo..hi-1, forward: the levels
 * sweeps of n_cols <= 64 columns at once, each column in its own
 * independent-edge environment.  Column k holds the arrow fractions
 * fracs[col_ptr[k]] <= ... <= fracs[col_ptr[k + 1] - 1], its recovery
 * fraction r_fracs[k] and its opening and closing rates ups[k], downs[k].
 * Bit k of masks[e] is edge e's state in column k: a flip candidate on edge
 * x with mark u closes it in the columns where (1 - u) q <= downs[k] and
 * opens it in those where u q < ups[k], so a column with both rates
 * -INFINITY keeps its edges as they are.  level[x * n_cols + k] is site x's
 * level in column k, read and written by cek_levels' rule; an arrow updates
 * only the columns whose bit is set on its edge.  state[2k], state[2k + 1],
 * touch[k] and taus[col_ptr[k]..] are column k's state, touch and taus of
 * cek_levels.  Returns the number of columns whose runs are all extinct;
 * the scan stops when all are. */
int64_t cek_scan(const double *times, const int8_t *kinds, const int32_t *idx,
                 const double *marks, int64_t lo, int64_t hi, const int32_t *src,
                 const int32_t *dst, const int32_t *dir_edge, const int32_t *norm_inf,
                 int32_t half_width, int32_t n_sites, int64_t n_cols,
                 const int64_t *col_ptr, const double *fracs, const double *r_fracs,
                 const double *ups, const double *downs, double q_rate, uint64_t *masks,
                 double *level, int64_t *state, double *touch, double *taus)
{
    double f_top[64], f_low[64];
    uint64_t live = 0;
    int64_t n_dead = 0;
    for (int64_t k = 0; k < n_cols; k++) {
        if (col_ptr[k] + state[2 * k] >= col_ptr[k + 1]) {
            n_dead++;
            continue;
        }
        live |= 1ULL << k;
        f_top[k] = fracs[col_ptr[k + 1] - 1];
        f_low[k] = fracs[col_ptr[k] + state[2 * k]];
    }
    for (int64_t i = lo; i < hi && live; i++) {
        int kind = kinds[i];
        if (kind == KIND_ARROW) {
            int32_t j = idx[i];
            int32_t s = src[j];
            if (norm_inf[s] >= half_width)
                continue;
            uint64_t m = masks[dir_edge[j]] & live;
            const double *ls = level + (int64_t)s * n_cols;
            int32_t d = dst[j];
            double *ld = level + (int64_t)d * n_cols;
            double u = marks[i];
            int at_edge = norm_inf[d] >= half_width;
            for (; m; m &= m - 1) {
                int k = __builtin_ctzll(m);
                double l = ls[k];
                if (l >= f_top[k] || (f_top[k] < 1.0 && u >= f_top[k]))
                    continue;
                double v = l > u ? l : u;
                if (v >= ld[k])
                    continue;
                if (v < f_low[k] && ld[k] >= f_low[k])
                    state[2 * k + 1]++;
                ld[k] = v;
                if (at_edge && v < touch[k])
                    touch[k] = v;
            }
        } else if (kind == KIND_RECOVERY) {
            int32_t x = idx[i];
            double u = marks[i];
            double *lx = level + (int64_t)x * n_cols;
            for (uint64_t m = live; m; m &= m - 1) {
                int k = __builtin_ctzll(m);
                if ((r_fracs[k] < 1.0 && u >= r_fracs[k]) || lx[k] == INFINITY)
                    continue;
                double old = lx[k];
                lx[k] = INFINITY;
                if (!(old < f_low[k]) || --state[2 * k + 1])
                    continue;
                double least = INFINITY;
                for (int32_t y = 0; y < n_sites; y++)
                    if (level[(int64_t)y * n_cols + k] < least)
                        least = level[(int64_t)y * n_cols + k];
                int64_t a = col_ptr[k], b = col_ptr[k + 1];
                while (a + state[2 * k] < b && fracs[a + state[2 * k]] <= least)
                    taus[a + state[2 * k]++] = times[i];
                if (a + state[2 * k] == b) {
                    live &= ~(1ULL << k);
                    n_dead++;
                    continue;
                }
                f_low[k] = fracs[a + state[2 * k]];
                int64_t n_low = 0;
                for (int32_t y = 0; y < n_sites; y++)
                    n_low += level[(int64_t)y * n_cols + k] < f_low[k];
                state[2 * k + 1] = n_low;
            }
        } else if (kind == KIND_FLIP) {
            double cq = (1.0 - marks[i]) * q_rate, oq = marks[i] * q_rate;
            uint64_t close = 0, open = 0;
            for (int64_t k = 0; k < n_cols; k++) {
                if (cq <= downs[k])
                    close |= 1ULL << k;
                if (oq < ups[k])
                    open |= 1ULL << k;
            }
            uint64_t m = masks[idx[i]];
            masks[idx[i]] = (m & ~close) | (~m & open);
        }
    }
    return n_dead;
}
