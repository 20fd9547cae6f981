/* Eq. (2) over one grid position's (right border, left border) grid.
 *
 * Scores every window of the contiguous border runs l0..l1 and r0..r1 at
 * split c, straight from the (W + 1) x (W + 1) prefix block of
 * repro.core.dp.SumMatrix, and returns the first maximum in row-major
 * order (rows are right borders, columns left borders).
 *
 * Every score performs the numpy path's operations in its order, so the
 * result is bitwise identical to repro.core.omega.OmegaWorkspace's row
 * blocks (which do what omega_from_sums does):
 *
 *   Σ_L   = 0.5 * (((P[c+1][c+1] - P[i][c+1]) - P[c+1][i]) + P[i][i])
 *   Σ_R   = 0.5 * (((P[j+1][j+1] - P[c+1][j+1]) - P[j+1][c+1]) + P[c+1][c+1])
 *   Σ_LR  = ((P[j+1][c+1] - P[c+1][c+1]) - P[j+1][i]) + P[c+1][i]
 *   den   = Σ_LR / (l * r) + eps
 *   num   = (Σ_L + Σ_R) / max(C(l,2) + C(r,2), 1)   (0 at l = r = 1)
 *   ω     = num / den
 *
 * Window-pair counts are small integers, exact in double. The build must
 * keep IEEE semantics: -ffp-contract=off (a fused multiply-add rounds
 * once where numpy rounds twice) and no -ffast-math.
 *
 * The reduction follows np.argmax: the first maximum wins, and the first
 * NaN beats every number.
 *
 * The caller checks 0 <= l0 <= l1 <= c < r0 <= r1 < W and passes `ld`,
 * the prefix block's row stride in doubles (a view into a larger anchored
 * block has a stride wider than W + 1), plus `scratch` of at least
 * 5 * (l1 - l0 + 1) doubles.
 */

#include <stdint.h>

int64_t repro_eq2_max(const double *restrict p, int64_t ld, int64_t l0,
                      int64_t l1, int64_t c, int64_t r0, int64_t r1,
                      double eps, double *restrict scratch,
                      double *restrict best_out)
{
    const int64_t nl = l1 - l0 + 1;
    double *restrict sum_l = scratch;          /* Σ_L per left border */
    double *restrict pairs_l = scratch + nl;   /* C(l, 2) */
    double *restrict size_l = scratch + 2 * nl; /* l */
    double *restrict den = scratch + 3 * nl;   /* one row of den */
    double *restrict num = scratch + 4 * nl;   /* one row of num, then ω */
    const double *pc = p + (c + 1) * ld;       /* prefix row c + 1 */
    const double pcc = pc[c + 1];
    double best = 0.0;
    int64_t best_at = -1;

    for (int64_t k = 0; k < nl; k++) {
        const int64_t i = l0 + k;
        const double *pi = p + i * ld;
        const double l = (double)(c - i + 1);
        sum_l[k] = 0.5 * (((pcc - pi[c + 1]) - pc[i]) + pi[i]);
        size_l[k] = l;
        pairs_l[k] = l * (l - 1.0) / 2.0;
    }

    for (int64_t j = r0; j <= r1; j++) {
        const double *pj = p + (j + 1) * ld;
        const double r = (double)(j - c);
        const double pairs_r = r * (r - 1.0) / 2.0;
        const double sum_r =
            0.5 * (((pj[j + 1] - pc[j + 1]) - pj[c + 1]) + pcc);
        const double head = pj[c + 1] - pcc;
        const double *row = pj + l0;
        const double *top = pc + l0;

        for (int64_t k = 0; k < nl; k++) {
            double within = pairs_l[k] + pairs_r;
            within = within < 1.0 ? 1.0 : within;
            den[k] = ((head - row[k]) + top[k]) / (size_l[k] * r) + eps;
            num[k] = (sum_l[k] + sum_r) / within;
        }
        if (j == c + 1 && l1 == c)
            num[nl - 1] = 0.0; /* l = r = 1: no within-window pair */
        for (int64_t k = 0; k < nl; k++)
            num[k] = num[k] / den[k];

        const int64_t base = (j - r0) * nl;
        for (int64_t k = 0; k < nl; k++) {
            const double v = num[k];
            if (best_at < 0 || v > best || (v != v && best == best)) {
                best = v;
                best_at = base + k;
            }
        }
        if (best != best)
            break; /* nothing beats the first NaN */
    }
    *best_out = best;
    return best_at;
}
