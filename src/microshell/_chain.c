/* One chunk of sampler.run_chain's Metropolis chain on the constraint shell.
 * _kernel.library() builds it, with _repr.c, into the package's one
 * kernel library.
 *
 * run_chain draws each chunk's random numbers with numpy and passes them
 * in as arrays: the coordinate of every step (idx), the partner of a
 * transposition (idx2), whether the step proposes a transposition (swap),
 * the Gaussian increment (noise) and the acceptance uniform (unif).  Every
 * buffer belongs to the caller and is sized by n and k.
 *
 * The chain's floating-point results are a pure function of these inputs:
 * libm pow and exp are called wherever the chain's definition raises to a
 * power or exponentiates, no product is fused into an add (build with
 * -ffp-contract=off), and the running sums are recomputed from x left to
 * right at the start of every chunk, so they do not drift.
 *
 * State carried between chunks:
 *   x      the configuration (n);
 *   step   {log step, step};
 *   count  {window accepts, window moves, windows closed,
 *           post-burn-in Gaussian moves, their accepts, states recorded}.
 * sums and deltas are scratch of length k; ref_c is NULL for the uniform
 * target.
 */
#include <math.h>
#include <stdint.h>

/* burn-in adapts the step after every ADAPT_WINDOW Gaussian moves, toward
   the acceptance rate TARGET_ACCEPT */
#define ADAPT_WINDOW 250
#define TARGET_ACCEPT 0.3

void chain_chunk(int64_t n, int64_t k, double delta, int64_t burn_in,
                 int64_t thin, int64_t done, int64_t todo, const double *exps,
                 const double *a, const double *ref_c, const int64_t *idx,
                 const int64_t *idx2, const uint8_t *swap, const double *noise,
                 const double *unif, double *x, double *sums, double *deltas,
                 double *step, int64_t *count, double *states,
                 double *residuals)
{
    for (int64_t i = 0; i < k; i++) {
        double s = 0.0;
        for (int64_t j = 0; j < n; j++)
            s += pow(x[j], exps[i]);
        sums[i] = s;
    }
    for (int64_t t = 0; t < todo; t++) {
        int64_t step_no = done + t, j = idx[t];
        int gaussian = !(swap[t] && n > 1), accept = 1;
        if (!gaussian) {
            /* transposition: always accepted, sums unchanged */
            double tmp = x[j];
            x[j] = x[idx2[t]];
            x[idx2[t]] = tmp;
        } else {
            double old = x[j], new = old + step[1] * noise[t];
            accept = new > 0.0;
            for (int64_t i = 0; accept && i < k; i++) {
                deltas[i] = pow(new, exps[i]) - pow(old, exps[i]);
                accept = !(fabs((sums[i] + deltas[i]) / n - a[i]) > delta);
            }
            if (accept && ref_c) {
                /* product reference: log density ratio of the move */
                double lr = 0.0;
                for (int64_t i = 0; i < k; i++)
                    if (ref_c[i] != 0.0)
                        lr += ref_c[i] * deltas[i];
                accept = lr >= 0.0 || unif[t] < exp(lr);
            }
            if (accept) {
                x[j] = new;
                for (int64_t i = 0; i < k; i++)
                    sums[i] += deltas[i];
            }
        }
        if (step_no < burn_in) {
            /* adapt on Gaussian moves only; transpositions carry no
               information about the step scale */
            if (gaussian) {
                count[0] += accept;
                count[1] += 1;
                if (count[1] >= ADAPT_WINDOW) {
                    count[2] += 1;
                    double rate = (double)count[0] / (double)count[1];
                    double gain = 1.0 / sqrt((double)count[2]);
                    step[0] += gain * (rate - TARGET_ACCEPT);
                    step[1] = exp(step[0]);
                    count[0] = 0;
                    count[1] = 0;
                }
            }
        } else {
            if (gaussian) {
                count[3] += 1;
                count[4] += accept;
            }
            if ((step_no + 1 - burn_in) % thin == 0) {
                double *row = states + count[5] * n, worst = 0.0;
                for (int64_t jj = 0; jj < n; jj++)
                    row[jj] = x[jj];
                for (int64_t i = 0; i < k; i++) {
                    double r = fabs(sums[i] / n - a[i]);
                    if (i == 0 || r > worst)
                        worst = r;
                }
                residuals[count[5]] = worst;
                count[5] += 1;
            }
        }
    }
}
