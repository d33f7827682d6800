/* The compiled event kernel: the flip rule (cek_grow) and the infection
 * loop (cek_run) of contactenv.engine, reading a Timeline's four buffers
 * (times float64, kinds int8, idx int32, marks float64) in place.
 *
 * Both make the same double comparisons as the plain-Python kernel in
 * reference.py, so their outputs are bit-identical to its: build with
 * -ffp-contract=off and without -ffast-math.  Every buffer is owned by the
 * caller, which checks lengths and offsets before each call (kernel.py).
 */

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
