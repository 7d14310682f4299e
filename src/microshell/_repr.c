/* float.__repr__ in C, and the CSV lines of a float matrix.
 *
 * put_double writes the bytes CPython's repr writes for a double: the
 * shortest decimal that reads back as the same double and, of those, the
 * closest to it, an exact tie going to the even last digit; fixed
 * notation for decimal exponents -4 <= e < 16, with ".0" after an
 * integral value; otherwise d.ddde+XX with a sign and at least two
 * exponent digits; "inf", "-inf", "nan" (any sign) and "-0.0".
 *
 * The digits are Ryu's (Adams 2018, "Ryu: fast float-to-string
 * conversion", PLDI): the bounds of the interval of decimals that round
 * to the double are scaled to a power of ten by one 128-bit multiplier
 * each, and digits are dropped while the interval still holds a shorter
 * decimal.  The multipliers are computed from exact integers by the
 * caller and passed in, each as {low 64 bits, high 64 bits}, with L(q)
 * the bit length of 5^q:
 *   inv[q] = floor(2^(L(q) - 1 + 125) / 5^q) + 1,   0 <= q < 342;
 *   pos[q] = floor(5^q / 2^(L(q) - 125)),           0 <= q < 326.
 */
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

#define POW5_BITS 125
/* a cell takes at most 24 bytes ("-2.2250738585072014e-308") and its
   comma; a line adds its row number (at most 20) and "\r\n" */
#define CELL_MAX 25
#define LINE_EXTRA 22

/* bit length of 5^e, 0 <= e <= 3528 */
static int32_t pow5bits(int32_t e) { return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1; }

/* floor(log10(2^e)), 0 <= e <= 1650 */
static uint32_t log10_pow2(int32_t e) { return ((uint32_t)e * 78913) >> 18; }

/* floor(log10(5^e)), 0 <= e <= 2620 */
static uint32_t log10_pow5(int32_t e) { return ((uint32_t)e * 732923) >> 20; }

static int multiple_of_pow5(uint64_t v, uint32_t p)
{
    uint32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

static int multiple_of_pow2(uint64_t v, uint32_t p) { return (v & ((1ull << p) - 1)) == 0; }

static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    u128 lo = (u128)m * mul[0], hi = (u128)m * mul[1];
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

/* the shortest, closest decimal digits of a finite nonzero double of
   biased exponent ieee_exp and fraction bits frac: value = *digits *
   10^(return value) */
static int32_t shortest(uint64_t frac, uint32_t ieee_exp, const uint64_t *inv,
                        const uint64_t *pos, uint64_t *digits)
{
    /* two spare bits below the mantissa hold the interval's bounds */
    int32_t e2 = (ieee_exp ? (int32_t)ieee_exp : 1) - 1023 - 52 - 2;
    uint64_t m2 = ieee_exp ? (1ull << 52) | frac : frac;
    int accept_bounds = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    /* the lower bound is half as far at the bottom of a binade */
    uint32_t mm_shift = frac != 0 || ieee_exp <= 1;
    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_zeros = 0, vr_zeros = 0;

    if (e2 >= 0) {
        uint32_t q = log10_pow2(e2) - (e2 > 3);
        int32_t k = POW5_BITS + pow5bits((int32_t)q) - 1;
        int32_t i = -e2 + (int32_t)q + k;
        const uint64_t *mul = inv + 2 * q;
        e10 = (int32_t)q;
        vr = mul_shift(4 * m2, mul, i);
        vp = mul_shift(4 * m2 + 2, mul, i);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, i);
        if (q <= 21) {
            /* only one of mp, mv and mm can be a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        int32_t i = -e2 - (int32_t)q;
        int32_t k = pow5bits(i) - POW5_BITS;
        int32_t j = (int32_t)q - k;
        const uint64_t *mul = pos + 2 * i;
        e10 = (int32_t)q + e2;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv = 4 m2 has two trailing zero bits, mp = mv + 2 one, and
               mm = mv - 1 - mm_shift one when mm_shift is 1 */
            vr_zeros = 1;
            if (accept_bounds)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = multiple_of_pow2(mv, q);
        }
    }

    int32_t removed = 0;
    uint32_t last = 0;
    uint64_t out;
    if (vm_zeros || vr_zeros) {
        /* exact cases: a bound may be representable, or the value a tie */
        while (vp / 10 > vm / 10) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_zeros) {
            while (vm % 10 == 0) {
                vr_zeros &= last == 0;
                last = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4; /* exactly ...50...0: round half to even */
        out = vr + ((vr == vm && (!accept_bounds || !vm_zeros)) || last >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) { /* most values drop two digits or more */
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        out = vr + (vr == vm || round_up);
    }
    *digits = out;
    return e10 + removed;
}

/* writes v as repr(v) writes it, returns the end */
static char *put_double(char *p, double v, const uint64_t *inv, const uint64_t *pos)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t frac = bits & ((1ull << 52) - 1);
    uint32_t ieee_exp = (uint32_t)(bits >> 52) & 0x7ff;
    if (ieee_exp == 0x7ff && frac) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (ieee_exp == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (ieee_exp == 0 && frac == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }

    uint64_t m;
    int32_t e10 = shortest(frac, ieee_exp, inv, pos, &m);
    char d[20];
    int len = 1; /* m has at most 17 digits */
    for (uint64_t r = 10; m >= r; r *= 10)
        len++;
    for (int i = len - 1; i >= 0; i--, m /= 10)
        d[i] = (char)('0' + m % 10);
    /* the decimal point sits decpt digits from the first; the exponent
       of d.ddd is decpt - 1 */
    int decpt = len + e10;
    if (decpt - 1 < -4 || decpt - 1 >= 16) {
        int x = decpt - 1;
        *p++ = d[0];
        if (len > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)(len - 1));
            p += len - 1;
        }
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        if (x < 0)
            x = -x;
        if (x >= 100)
            *p++ = (char)('0' + x / 100);
        *p++ = (char)('0' + x / 10 % 10);
        *p++ = (char)('0' + x % 10);
    } else if (decpt <= 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', (size_t)-decpt);
        p += -decpt;
        memcpy(p, d, (size_t)len);
        p += len;
    } else if (decpt >= len) {
        memcpy(p, d, (size_t)len);
        p += len;
        memset(p, '0', (size_t)(decpt - len));
        p += decpt - len;
        memcpy(p, ".0", 2);
        p += 2;
    } else {
        memcpy(p, d, (size_t)decpt);
        p += decpt;
        *p++ = '.';
        memcpy(p, d + decpt, (size_t)(len - decpt));
        p += len - decpt;
    }
    return p;
}

/* Writes rows of cells (row-major, cols a row) into buf as CSV lines:
 * each line is the row's number, counted from first, then its cells, all
 * comma-separated, and "\r\n".  Whole lines are written while the longest
 * possible one still fits in cap bytes.  Returns the number of lines
 * written and stores the number of bytes in *used. */
int64_t format_rows(const double *cells, int64_t rows, int64_t cols, int64_t first,
                    const uint64_t *inv, const uint64_t *pos, char *buf, int64_t cap,
                    int64_t *used)
{
    int64_t line_max = CELL_MAX * cols + LINE_EXTRA, r = 0;
    char *p = buf;
    for (; r < rows && (p - buf) + line_max <= cap; r++) {
        char num[20];
        int len = 0;
        uint64_t row_no = (uint64_t)(first + r);
        do {
            num[len++] = (char)('0' + row_no % 10);
            row_no /= 10;
        } while (row_no);
        while (len)
            *p++ = num[--len];
        for (int64_t c = 0; c < cols; c++) {
            *p++ = ',';
            p = put_double(p, cells[r * cols + c], inv, pos);
        }
        *p++ = '\r';
        *p++ = '\n';
    }
    *used = p - buf;
    return r;
}
