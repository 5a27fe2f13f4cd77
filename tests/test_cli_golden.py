"""Golden CLI outputs: the exit code and the sha256 of stdout and stderr
of every README example, of every command in each output format, of
--help and usage errors, and of the pinned minpoly/mq/hseries/eval/
eventual/verify/oracle calls, run in-process through cli.main.  Any
change to a printed byte of these calls fails here; an intended change
updates its digest.  The same holds for a replay of the first ops of
each benchmark workload, one digest per workload, and for the term
order of parsed formulas."""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib

import pytest

from cyclosum import cli
from cyclosum.dsl import parse_formula

ROOT = pathlib.Path(__file__).resolve().parent.parent

EMPTY = hashlib.sha256(b"").hexdigest()

# Eventual polynomials of the high-degree formulas below, as the CLI
# prints them; the verify calls take them back as conjectures.
H18 = ("1/95126814720*n^9 + 1/880803840*n^8 + 121/2264924160*n^7"
       " + 3/2097152*n^6 + 107989/4529848320*n^5 + 10619/41943040*n^4"
       " + 39792107/23781703680*n^3 + 277075/44040192*n^2 + 12155/1179648*n")
E16 = ("1/2642411520*n^8 - 29/660602880*n^7 + 47/20971520*n^6"
       " - 3109/47185920*n^5 + 153869/125829120*n^4 - 1388303/94371840*n^3"
       " + 74251427/660602880*n^2 - 27561307/55050240*n + 1")
SUM6 = ("729/64*n^6 - 2187/16*n^5 + 10935/16*n^4 - 3645/2*n^3"
        " + 10935/4*n^2 - 2187*n + 729")
# One group past the DSL's nesting cap of 100.
DEEP = "(" * 101 + "p1" + ")" * 101
# One digit past the DSL's number-token limit of 4,300 digits.
LONG = "1" * 4301

# (argv, exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = [
    (['power-sum', '--n', '10', '--h', '4'], 0,
     'b1ce0aa6fdf3cf349d773243dab9fbbe09d30619f38b0c1e8977e28c4f0bc495',
     EMPTY),
    (['eventual', '--formula', 'energy'], 0,
     '628a0d8dd72a08cf857b8a43480723e077152b92467ca69ba5857d2308282085',
     EMPTY),
    (['verify', '--formula', 'energy', '--conjecture', '(n^2-3*n)/2', '--below-threshold'], 1,
     '9e6a6a75a409e3e0229f41a4313b7ae0569254fae7cdbb96eeda8e6d855b13cd',
     EMPTY),
    (['mq', '--formula', '1 - t', '--n', '5'], 0,
     '06fd88385e60973d97acd71ae5eeaf552a4b74d91f285b847fe0fd194a307945',
     EMPTY),
    (['hseries', '--n', '9', '--order', '7', '--format', 'json'], 0,
     'ef330ad239a79c626a0eddf29ff996cf836c99ef524f878cfab7239f51b7a371',
     EMPTY),
    (['oracle', '--formula', 'h(6)', '--n', '9', '--precision', '256'], 0,
     '9c1ba016146a7a29780f3556f713150060f9336adb01a7a346e6afbb1c076c4a',
     EMPTY),
    (['minpoly', '--n', '1'], 2,
     EMPTY,
     '176be6f3b5bceeb61026ba0b2a059988d3edd4cd734082189251478da1af6320'),
    (['minpoly', '--n', '2'], 0,
     '44e0cbe156b638186b3411253710b866f4986c28efa167c632899b2b289e462e',
     EMPTY),
    (['minpoly', '--n', '7'], 0,
     'afa0ce597bef2bd239a2fde9c17becd63e6f5a4208e3ad0952137f531c3d8f82',
     EMPTY),
    (['minpoly', '--n', '12', '--format', 'json'], 0,
     '4963497bdba3d4c241b0266164fb02933acde4a57b462af1d0b4068b3a853053',
     EMPTY),
    (['mq', '--formula', '1 - t + 2*t^2', '--n', '64'], 0,
     'c4271aaac3e8809feca6ee0f5a6230e698ada2018f04c816da518ebbbfbdfed2',
     EMPTY),
    (['mq', '--formula', '1 + z*t - 3*t^3', '--n', '257'], 0,
     '05c4f9d9da33025243a6878e6ac2d5f777080b7e77be04259121d1be661fdefa',
     EMPTY),
    (['mq', '--formula', '1 + 4*t', '--n', '300'], 0,
     'fc6726bd13844f703df040534f55ec9e88d7b43d0a75ef53aebe884e88a62c90',
     EMPTY),
    (['hseries', '--n', '2', '--order', '5'], 0,
     'c60b743708ead4b60c25d87da412e28e074fe79261ea4b5c837e6329d86858d6',
     EMPTY),
    (['hseries', '--n', '4', '--order', '6', '--format', 'tsv'], 0,
     '540ef9c7e709f67d86533319d45fd30cf46fdf416971b1aed5583d7d9bf2675f',
     EMPTY),
    (['hseries', '--n', '64', '--order', '64'], 0,
     '6c21e5bf66bf2f115f5e69d93cd94922ecc7527e8c70ad577a75cef6b3dd005c',
     EMPTY),
    (['hseries', '--n', '300', '--order', '256'], 0,
     '88073f0edb95a8e621ce81a8f846f93a816cb300e112f9663827146a3d137626',
     EMPTY),
    (['hseries', '--n', '11', '--order', '40'], 0,
     'f3c5f790469728fe6723b8bc40032ab38045bfe9da9c6b442552255e3202424d',
     EMPTY),
    (['hseries', '--n', '1', '--order', '3'], 2,
     EMPTY,
     '176be6f3b5bceeb61026ba0b2a059988d3edd4cd734082189251478da1af6320'),
    (['hseries', '--n', '5', '--order', '-1'], 2,
     EMPTY,
     'b43e0ffb47ff11ded7444f904f538b8f65527b8cd8c37eb68916a9606e85756b'),
    (['hseries', '--n', '1000000', '--order', '5'], 0,
     'e1d215f5bcdec731634221bf959003c1471cc3c67bcfc21a2bb4addc20ee666a',
     EMPTY),
    # 295 of its 601 numerators pass str()'s limit of 4,300 digits
    (['hseries', '--n', '1000000000000000000000000000000', '--order', '600'], 0,
     '9b366b47cf04c59d58dc52dd2ee72070f1fd6ffe5cae84f1b9be731e6d9db9f8',
     EMPTY),
    (['eval', '--formula', 'energy*prod(1 - t + 2*t^2)', '--n', '64'], 0,
     '2e73ae87ace503dfd90c4dd2d5db22726961d97150ca872767d36dcd003e1413',
     EMPTY),
    (['oracle', '--formula', 'prod(1 + 4*t)', '--n', '300'], 0,
     'fb7628c0fff6722ebc8478348b8494dea9bacf852eb5fa878d5e3fc32f2667f1',
     EMPTY),
    (['oracle', '--formula', 'p2*prod(1-t)^2', '--n', '200'], 0,
     'e92bae5df2823d086ec0bf10182ab91f7b675f851f224d2c9687a0a7661b5c5a',
     EMPTY),
    (['eventual', '--formula', 'h(18)'], 0,
     '073536daaf2fbc26872212bc8dab5f11f0eef33e4f38ef40c6db4d0133c51973',
     EMPTY),
    (['verify', '--formula', 'h(18)', '--conjecture', H18, '--below-threshold'], 1,
     '289b7d1ee9a6fdbf0a229191c4dd0844b5eb74513b9fd3e3bf0075146b8f1e01',
     EMPTY),
    (['eventual', '--formula', 'e(16)'], 0,
     'de6798b83db0bf81992d5f86b86bc1f727892de58d7c2bb6bb4ed8e3d3677419',
     EMPTY),
    (['verify', '--formula', 'e(16)', '--conjecture', E16, '--below-threshold'], 1,
     'b7ff892e2c7acbadd6d42b8825aedd68ec79ca39640e2a7b3fcdf5893c6bf7f7',
     EMPTY),
    (['eventual', '--formula', 'mixed(4, 5)'], 0,
     'ae6190c9bdd46bafc6636b7485da68fe251a12ccbcf3c3654217eafb4ae08301',
     EMPTY),
    (['verify', '--formula', 'mixed(4, 5)', '--conjecture', '-3/8*n + 2', '--below-threshold'], 1,
     '792a6345526fbc11db87ee6e2a3e627fdf038586996c47506ebd9fd6ced617d4',
     EMPTY),
    (['eventual', '--formula', '(p1 + p2 + z)^6'], 0,
     '53b967c75bb0d22d5aa9b18bf526d28acd7d7a5ae083ac0ab7a7beed3d04ceac',
     EMPTY),
    (['verify', '--formula', '(p1 + p2 + z)^6', '--conjecture', SUM6, '--below-threshold'], 1,
     'ec73821fc82c9f8af8c14fc285b34f916c803cb7eb52336ff34713f024c5ff05',
     EMPTY),
    (['eventual', '--formula', 'z^3*p2 - z*p1^2'], 0,
     '515a7c955cc83f51a2bd81989b849cb1a905c4270b5c2407d109bd1c4839d645',
     EMPTY),
    (['verify', '--formula', 'z^3*p2 - z*p1^2', '--conjecture', '1/2*n^4 - 5/2*n^3 + 9/2*n^2 - 9/2*n + 2', '--below-threshold'], 1,
     'ea77cb8b0eb857ed31457a6740f0232e2b559d4bbc6374614fd8c02684a061d8',
     EMPTY),
    # Formulas with d = 0 have no level below n_star = 2, so
    # --below-threshold substitutes at an empty list of levels.
    (['verify', '--formula', '3', '--conjecture', '3', '--below-threshold'], 0,
     '0c0cd7f4e30ae21547727093501972f6058ac513ee66ed883c159d95612ccc9a',
     EMPTY),
    (['verify', '--formula', 'z^2', '--conjecture', '(n-1)^2', '--below-threshold'], 0,
     '0c0cd7f4e30ae21547727093501972f6058ac513ee66ed883c159d95612ccc9a',
     EMPTY),
    (['verify', '--formula', '(p1 + p2 + z)^6', '--conjecture', SUM6 + ' + 1/3'], 1,
     '1bb788209ed83e19f27cf506e0ddbc98c549842d16062b8779fcaec29819f5b3',
     EMPTY),
    # The symbolic FAIL as json and tsv: the "difference" string that
    # cli._verify writes from the report's exact difference.
    (['verify', '--formula', '(p1 + p2 + z)^6', '--conjecture', SUM6 + ' + 1/3', '--format', 'json'], 1,
     '0c86aa925b72c2fe47cf7f879b79f10948d177d68ea72adf6c8de5548e31df71',
     EMPTY),
    (['verify', '--formula', '(p1 + p2 + z)^6', '--conjecture', SUM6 + ' + 1/3', '--format', 'tsv'], 1,
     '62281bc7b8c9551d2dec309edb9fd12a168e9c14a397c29a86038348ec9951d0',
     EMPTY),
    # The largest formula renders as json and tsv: the "formula" key is
    # the whole power-sum presentation of h(18) and e(16).
    (['eventual', '--formula', 'h(18)', '--format', 'json'], 0,
     'e67742b6b439f9a9d76f5c28e51f8047d053387311df5579472ed32cf4a9459f',
     EMPTY),
    (['verify', '--formula', 'h(18)', '--conjecture', H18, '--format', 'tsv'], 0,
     '5d355f5209d00402867d5215d9048cbff0e1931f131e8a2beb971dd06ddb926b',
     EMPTY),
    (['eventual', '--formula', 'e(16)', '--format', 'json'], 0,
     '0481dc7fe5767fd19a624e0445d4bcff4d42068d84afe9c0dac5437c7028b96d',
     EMPTY),
    (['verify', '--formula', 'e(16)', '--conjecture', E16, '--format', 'tsv'], 0,
     'affc7accf6373f6847f0ae767ebf77d401b661501a1af52f308910078b97fd8a',
     EMPTY),
    (['verify', '--formula', 'h(18)', '--conjecture', H18], 0,
     'ae842721604123d24703c623fcfa86dc2f8880f3c752d5b12d35373bf94065e3',
     EMPTY),
    (['eval', '--formula', 'h(18)', '--n', '20'], 0,
     '395cfff8beeaf6a3dd9008a9d36a77037808194bff212809f5632dd5d5fe6050',
     EMPTY),
    (['eval', '--formula', 'z^3*p2 - z*p1^2', '--n', '6', '--format', 'json'], 0,
     '86e3c325309054e118aca69f4cae7bcbd885954dc7b382872836aa7d53abc02b',
     EMPTY),
    (['oracle', '--formula', 'mixed(4, 5)', '--n', '5'], 0,
     'c3b21f0ee6004c3273c192e8093acdb3b36d2c98e76f7ec98e440b1487d9260a',
     EMPTY),
    (['eventual', '--formula', 'p1 - p1'], 0,
     '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
     EMPTY),
    (['eventual', '--formula', '3/7*z^2'], 0,
     '696fe456af352e640092ede934ad83c86e03f8d546891aba9a5e176225e5a5a2',
     EMPTY),
    # DSL edge and error cases: division, names, product factors,
    # conjectures, and the qpoly and extract entry points.
    (['eval', '--formula', 'p1/z', '--n', '40'], 2,
     EMPTY,
     '72339f6e3e3f4069f20b97fbd1746a9096a177af1eca7f7c5cb51e98717a5c0e'),
    (['eval', '--formula', 'p1/(p1 - p1)', '--n', '40'], 2,
     EMPTY,
     'e62eee0c728a1a299840e4d236c6aa7094b26b9bfac58b577c8a733473075b55'),
    (['eval', '--formula', 'p1/(3*p1/p1)', '--n', '40'], 2,
     EMPTY,
     '72339f6e3e3f4069f20b97fbd1746a9096a177af1eca7f7c5cb51e98717a5c0e'),
    (['eval', '--formula', 'p1/(z - z + 2)', '--n', '40'], 0,
     '662aee3530805e1d62d8b86e219d3be38eb641dcefe246e53ba3e9906b0f5096',
     EMPTY),
    (['eval', '--formula', 't*p1', '--n', '40'], 2,
     EMPTY,
     'e023cf145976924e42d4df10126bbae47ae7a73844375e4c8bd87bcdfe008c5f'),
    (['eval', '--formula', 'p0', '--n', '40'], 2,
     EMPTY,
     '5a107f64b6de0d69a02a688da7ecc6993baddfb2296671af6a8e56e7a06128cd'),
    (['eval', '--formula', 'p33', '--n', '40'], 2,
     EMPTY,
     '963c076666882fd54ed7682f436a3a9199a60e36781a8376f90e431329ca77df'),
    (['eval', '--formula', 'h(33)', '--n', '40'], 2,
     EMPTY,
     'b6e14cebb2598c458498447b3708d477ef826d9218ba85122f5ef47528842ce2'),
    (['eval', '--formula', 'prod(2 + t)', '--n', '40'], 2,
     EMPTY,
     'aee327fcf91cf658c49f159f1816b36dcbae9ca2877ea3ed9fe24b3ec03f5480'),
    (['eval', '--formula', 'prod(1 + t - t)', '--n', '40'], 0,
     '5d2105474bb0d0391e43c57c10fdfc3d89094f3cc55e4d033ef310e3d996f8d3',
     EMPTY),
    (['eval', '--formula', 'prod(1 + p1*t)', '--n', '40'], 2,
     EMPTY,
     'c69b85ad54234e8dcc071c76a40cd421f9f0bb60cc6acc7dc05edb45d10ac28b'),
    (['eval', '--formula', 'prod(1 + t)^0', '--n', '40'], 0,
     'e2b269f0438a5c5a57eb9bd1487716857065688e40fc45cf74c55a55e55d1b83',
     EMPTY),
    (['eval', '--formula', 'p1 + prod(1+t)', '--n', '40'], 2,
     EMPTY,
     'f346f49a03d3e8df92fee259c377d12c43b0cfab6e6e8f7ad9238aa9895d7f5e'),
    (['eval', '--formula', 'prod(1+t)/2', '--n', '40'], 0,
     'b43955503253075a0a6329d3db59ff36141abb006c6382b305b2d94350819916',
     EMPTY),
    (['eval', '--formula', 'p1*prod(1 + t/z)', '--n', '40'], 2,
     EMPTY,
     '72339f6e3e3f4069f20b97fbd1746a9096a177af1eca7f7c5cb51e98717a5c0e'),
    # Numbers are ASCII digits: an Arabic-Indic digit is refused.
    (['eval', '--formula', 'p1^٣ + ٢', '--n', '5'], 2,
     EMPTY,
     'bd7951abfd12f425eaecff388d70508934a72d1786928f26d70de7298ec2db62'),
    # prod(...) takes one '^ INT' like any atom, so a second one trails.
    (['eval', '--formula', 'prod(1+t)^2^3', '--n', '40'], 2,
     EMPTY,
     '02bc0caf82d28d378edb04caa1a780ee3df87473fd33499ce2914ccfd8337f2e'),
    (['verify', '--formula', 'energy', '--conjecture', 'n/n - 2'], 2,
     EMPTY,
     '72339f6e3e3f4069f20b97fbd1746a9096a177af1eca7f7c5cb51e98717a5c0e'),
    (['verify', '--formula', 'energy', '--conjecture', 'z'], 2,
     EMPTY,
     '15907b4ca982d6e94610268836c065f000fcce2c0b9404dd647e05187c420bc8'),
    (['mq', '--formula', '1 + t/0', '--n', '5'], 2,
     EMPTY,
     'e62eee0c728a1a299840e4d236c6aa7094b26b9bfac58b577c8a733473075b55'),
    (['extract', '--formula', '1 + z*t - t^2/3', '--r', '4'], 0,
     '76407d512bc5da3b5b3ac378ae4ec6b45cc950051123d446cbff2df1d8aff840',
     EMPTY),
    # Inputs of the integer product and extraction kernels: a factor with
    # a z-dependent coefficient at r = 24, and powers of sums with
    # z-dependent and rational coefficients.
    (['extract', '--formula', '1 + z*t - 3*t^3', '--r', '24'], 0,
     '67663efcf2e3a1b0ed71c427aa84cc868652a7c5dd05a9cc4a483da3ed1cfb80',
     EMPTY),
    (['eventual', '--formula', '(p1+p2+z)^40'], 0,
     'c201621f5a5867d715013f45be39a2ed507b9271b22f26a0620fc0b59974ed6b',
     EMPTY),
    (['eventual', '--formula', 'h(3)^40'], 0,
     '793978db683d0589679360dfd13c9ba12154fd9a0cd587895a131ad9d1f3edd2',
     EMPTY),
    (['eventual', '--formula', '(1/3*p1 + 2/5*z*p2 - 7/9)^30'], 0,
     '98bf38e8d74226acbbe436aa3c18d51f041b2c95024b08599087cacba6f0cff4',
     EMPTY),
    # A Q that vanishes at a cosine point: the exact value is 0.
    (['oracle', '--formula', 'prod(1+t)', '--n', '10'], 0,
     'f4c6fc101200012feff1d3f6e141faa5770996b206ae5c27a75fd84e7ec7a337',
     EMPTY),
    (['oracle', '--formula', 'p1*prod(1+t)^2', '--n', '8'], 0,
     'aae086198f17447a4e35623ec20432c5efbb28ec85405d262b8fc46bba0bdb54',
     EMPTY),
    (['oracle', '--formula', 'prod(1 - 2*t)', '--n', '6'], 0,
     '919130e708cef60658d6f21e23bacbe68c284a6ea0d06e959c1cf10182211fe3',
     EMPTY),
    (['oracle', '--formula', 'prod(1 + 2*t)', '--n', '3'], 0,
     '05d40aa21eaec1e83ae052bb34a9b4a4588ef28846db393bf390ec4cf7f1f57f',
     EMPTY),
    # Values past 2^3500 and below 2^-3500 (1.778e+1145 and 2.002e-1106).
    (['oracle', '--formula', 'prod(1 + 4*t)^12', '--n', '320'], 0,
     '7a782a959e4d3801285022ebbbd459cf02b99891a5b2aeea51129e9dc9cb231e',
     EMPTY),
    (['oracle', '--formula', 'prod(1 + 4*t)^12', '--n', '320', '--format', 'json'], 0,
     '460284230da0b1af5d07a8cab53226192bfdf1e094da134a1365d9644df84daa',
     EMPTY),
    (['oracle', '--formula', 'prod(1 - t)^13', '--n', '300'], 0,
     '6eb9bf6eaa3657e38bf9d046808b69f513ea5555729095c908b8bef3c674ba1b',
     EMPTY),
    (['oracle', '--formula', 'prod(1 - t)^13', '--n', '300', '--format', 'json'], 0,
     'e462a5e7a287e1b761acc299db50225b5a05590209dc23c4e35665d63a7a8c5f',
     EMPTY),
    # A product factor of 2^1100: resolved at n = 6; at n = 12 the default
    # bound would exceed the value (|exact| about 5.53e+2978), so 256 bits
    # are refused with exit 2 and 2048 bits pass (tolerance 7.44e+2694).
    (['oracle', '--formula', 'prod(1 + 2^1100*t)', '--n', '6'], 0,
     '2b04f3a1867abd158237e1d74182926b8c0023f267064bfdff8fe8a4692260ba',
     EMPTY),
    (['oracle', '--formula', 'prod(1 + 2^1100*t)', '--n', '12'], 2,
     EMPTY,
     'c5f57890a287f003bd568c6e160906de7bff5a5e2d98a54ff3d9321a04e9f94f'),
    (['oracle', '--formula', 'prod(1 + 2^1100*t)', '--n', '12', '--precision', '2048'], 0,
     '8e7ed4c17751aef38b7c5ed4a956a3eec95488ce2d002353b61a486db7e56ce5',
     EMPTY),
    # 4,366 digits: past CPython's default limit for str(int).
    (['power-sum', '--n', '2', '--h', '14500'], 0,
     'fcbd13881a2ceaefb1c37b24599a8ed839f7435cd0f4f37fbf2013bac91b7b20',
     EMPTY),
    # Refusals with exit 2: a malformed or negative --tolerance, verify on
    # a product formula, and nesting past the cap; and a zero tolerance.
    (['oracle', '--formula', 'p1', '--n', '7', '--tolerance', '1/0'], 2,
     EMPTY,
     '5413e76ae56f4806d4f5f80450f0fdfbc4f84db5b2ac24c37af3f352c06f1404'),
    (['oracle', '--formula', 'p1', '--n', '7', '--tolerance', '-1'], 2,
     EMPTY,
     '9ff112e5a1ea4de68b2fc170fbdcdb71e8d3b1e114a05aa921cecb467ca0785f'),
    (['oracle', '--formula', 'p1', '--n', '7', '--tolerance', '0'], 0,
     'f93342ed8cbcde9614268d567900b7d3ee9d7e94bc96299799633edb0d5104b8',
     EMPTY),
    (['verify', '--formula', 'prod(1-t)', '--conjecture', 'n'], 2,
     EMPTY,
     'f06a0d404f46c6a61b62425dc4bd63c906402052e4c83f7f0442f2d440464b0d'),
    (['eventual', '--formula', DEEP], 2,
     EMPTY,
     '6c4483c5996adaf5b14c3fcc41aeae3bf7da7d0ad9213d613080bcd15a052e70'),
    (['eventual', '--formula', 'p1 + ' + LONG], 2,
     EMPTY,
     'fa885ecfcd96afa21fdbdb22a56f28add432613c20fc16dbaafad8171000d925'),
    # A power in a conjecture past the degree cap of 65,536 is refused
    # before its row is made.
    (['verify', '--formula', 'energy', '--conjecture', 'n^99999999999999999999'], 2,
     EMPTY,
     'c06782164c355b48ffe9db661daa9f80aa4c0d2da23be5989f9857181d2f0cd2'),
    # A power whose size bound passes 2^26 bits is refused before it is
    # expanded: a dense power in n below the degree cap, and a constant
    # power, which has degree 0, in a conjecture and in a formula.
    (['verify', '--formula', 'energy', '--conjecture', '(2*n - 1)^65536'], 2,
     EMPTY,
     '135cd0d976fed3aa69a37c23528d88fcfdb9bd9a161ac1cd78f734291951c9c9'),
    (['verify', '--formula', 'energy', '--conjecture', '2^99999999999999999999'], 2,
     EMPTY,
     '983bd3bcddb82e18fa8e9991d3bea9b224642c457b5164097a9fa623a50bebf6'),
    (['eval', '--formula', '2^99999999999999999999', '--n', '5'], 2,
     EMPTY,
     '983bd3bcddb82e18fa8e9991d3bea9b224642c457b5164097a9fa623a50bebf6'),
    # cos-sum, sin-sum and catalan-a in text, and every command in json and tsv.
    (['cos-sum', '--n', '3', '--h', '2'], 0,
     '8228c6ffceb1891bb4615da65920d06b1b5a44a1747183b163c0abb088c3ea1a',
     EMPTY),
    (['sin-sum', '--n', '4', '--h', '2'], 0,
     '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
     EMPTY),
    (['catalan-a', '--n', '9', '--r', '2'], 0,
     '870b6c1c43a0ae142aa398f4c36ed71b38c638e8aaf43004600787c540e0ac50',
     EMPTY),
    (['power-sum', '--n', '10', '--h', '4', '--format', 'json'], 0,
     '729cd18f9c6593bd5a98c5ec65e392c707cec82adfb0ff89000e05b635311616',
     EMPTY),
    (['cos-sum', '--n', '3', '--h', '2', '--format', 'json'], 0,
     '944733ce1b04d8ad0d7cae193013862208817a3c2256d79ee74e322d677dc820',
     EMPTY),
    (['sin-sum', '--n', '4', '--h', '2', '--format', 'json'], 0,
     '0a1a552783a1ae656ea3287260ac10e19d9627ee502de208348b80675ca5a5d6',
     EMPTY),
    (['minpoly', '--n', '7', '--format', 'json'], 0,
     'ce4f66e8d16331dcd2167093a7729172edde42b7ac7c4ff33553ae37a2dc2fc0',
     EMPTY),
    (['mq', '--formula', '1 - t', '--n', '5', '--format', 'json'], 0,
     '4d7c2b8cd16b467c1eebf092b6f339c7f7a148cc105784e001d6ff50b32baab3',
     EMPTY),
    (['eval', '--formula', 'energy', '--n', '5', '--format', 'json'], 0,
     'c717927cc2b1b325cb169d8e3dc49ffedbbc2f3d868844ed10e2ab556d69b1b1',
     EMPTY),
    (['eventual', '--formula', 'energy', '--format', 'json'], 0,
     '5f70da5493d19c02f6c29286872340d5b47de5f795fc0dd29927284dc25359d9',
     EMPTY),
    (['verify', '--formula', 'energy', '--conjecture', '(n^2-3*n)/2', '--below-threshold', '--format', 'json'], 1,
     'aea5d4168049cf6a92acbb38aa740909664f5c8c460b18670cae18bccb05b627',
     EMPTY),
    (['catalan-a', '--n', '9', '--r', '2', '--format', 'json'], 0,
     'e58e4eb0249c64a2c5cf0e267aa42d1e57e5fa912e0ee32bee5557bfd5909f6d',
     EMPTY),
    (['extract', '--formula', '1 + z*t - t^2/3', '--r', '4', '--format', 'json'], 0,
     '30aa3d755d68bf8dc273d9a7cfeb378d9fd35fc1f8e8935a8309dac2746b1ec4',
     EMPTY),
    (['oracle', '--formula', 'h(6)', '--n', '9', '--format', 'json'], 0,
     '40dfa472ea499ce517b740e32b89d7fbb42214853d6b4ab5c4e516ddfcebc225',
     EMPTY),
    (['power-sum', '--n', '10', '--h', '4', '--format', 'tsv'], 0,
     '930f8980363d50bcddd2187a61ef20bab29e7f0bbe508dd7459689858b648bc9',
     EMPTY),
    (['cos-sum', '--n', '3', '--h', '2', '--format', 'tsv'], 0,
     'a65c75a2e022f13e87e25cbfaed03db7f9787190bc0212a606a9e9d6f2016701',
     EMPTY),
    (['sin-sum', '--n', '4', '--h', '2', '--format', 'tsv'], 0,
     '438497595f83cca31f7bbe84cd8a1f254b511be839a7a29f1ba2a9218eaf00ce',
     EMPTY),
    (['minpoly', '--n', '7', '--format', 'tsv'], 0,
     '9518e5538386f3d9a147839fa9bfb7be27c19780f5347440430cc3d887e860fd',
     EMPTY),
    (['mq', '--formula', '1 - t', '--n', '5', '--format', 'tsv'], 0,
     '5dfc5c803fe55bc77f906c260bb37075e3afb64272c90b8a35d2cd70e28a59b7',
     EMPTY),
    (['eval', '--formula', 'energy', '--n', '5', '--format', 'tsv'], 0,
     'e4c42c211cc4bfe783821a70257be5c50df68778e407d7787e1a43512431515a',
     EMPTY),
    (['eventual', '--formula', 'energy', '--format', 'tsv'], 0,
     'dc066519dc2f46842f293c0f745ca66990c3b2c4e0bdfda1c16d1c784a3cb5d7',
     EMPTY),
    (['verify', '--formula', 'energy', '--conjecture', '(n^2-3*n)/2', '--below-threshold', '--format', 'tsv'], 1,
     'e657b15b397194657a894c395081bebc9b5acae722cf54f4ff9ce480be38b4fd',
     EMPTY),
    (['hseries', '--n', '9', '--order', '7', '--format', 'tsv'], 0,
     '5c94445c9f609b7852086bd448fddeadd454074d373b0d64a01de374a0fc1385',
     EMPTY),
    (['catalan-a', '--n', '9', '--r', '2', '--format', 'tsv'], 0,
     '08ad1df5b5ccd8692fc7138e5cc11c93e1b491d16d32ed1dd4274524cdc4fe31',
     EMPTY),
    (['extract', '--formula', '1 + z*t - t^2/3', '--r', '4', '--format', 'tsv'], 0,
     '24b4a993992fd134445341fefbf988570ecdf0198bd83d1743e0ce991fce5b76',
     EMPTY),
    (['oracle', '--formula', 'h(6)', '--n', '9', '--format', 'tsv'], 0,
     '7387773271de0199942bebd8446d47b1efe8c43cea583ddec6a07dcf58fc71c1',
     EMPTY),
    # --help, for the top level and for each command, at COLUMNS=80.
    (['--help'], 0,
     '6239624362d7bf78accce2d256b2f4c147eea016bb8e34494762de930d368d51',
     EMPTY),
    (['power-sum', '--help'], 0,
     'ddd59427c5835c542635b317c841f5146b60ef9c2ced12f12588db74d7d76957',
     EMPTY),
    (['cos-sum', '--help'], 0,
     'a807792db57878e3fb4872adb56daab95e02acf1646d033aaecc095f249e42bb',
     EMPTY),
    (['sin-sum', '--help'], 0,
     'ea9bceb705656d5cf11b2bbf725f51e702d8de6398a7f009bcb312c9b44c2134',
     EMPTY),
    (['minpoly', '--help'], 0,
     '35a1fe008c82210e5aca2592330159254623180c4c33e2bc62754ed13d40632b',
     EMPTY),
    (['mq', '--help'], 0,
     'cdf23d87c9c5a118cdf77cf02378535fa531543be283f26ce8316241345d77e1',
     EMPTY),
    (['eval', '--help'], 0,
     'f488984d1331f314e0852b360cf32bf7de7608f3d37d3ec559261a1542697318',
     EMPTY),
    (['eventual', '--help'], 0,
     '04e451ab3dfd074f2b35397aa2210488f896839aba29f9bd0a69fec1f05c055e',
     EMPTY),
    (['verify', '--help'], 0,
     '490c189329a6f89306830e653a21dc59e20cfc1cea98ec10695eb1051d91c2ea',
     EMPTY),
    (['hseries', '--help'], 0,
     'f613ef0b973776a35670a6011668a47db0f6b5a665930fd0d2d5af7914fab854',
     EMPTY),
    (['catalan-a', '--help'], 0,
     '669f9e0052e46e0c71319ee28be768ef4d565d24cab96960bd1067317171b056',
     EMPTY),
    (['extract', '--help'], 0,
     '497730b5c7e7fc9bd1d3f59d875d9eec5828e3c2aea03854fc3242010fb90b75',
     EMPTY),
    (['oracle', '--help'], 0,
     '26ca24f7102dcff320bdfe78344f443d9387b6e4d70b840814342dfaf1fff106',
     EMPTY),
    # Usage errors: no command, an unknown command, a missing --n, a bad --format.
    ([], 2,
     EMPTY,
     'cf98e087bff31beb548e9a363f65e36d63cc44d2011ff7cd3afeaf413ae8f390'),
    (['frobnicate'], 2,
     EMPTY,
     '29c508f589eebfc5ff251f6dc2717216f9ce6986c0bea017747ed44aa253bff4'),
    (['power-sum', '--h', '4'], 2,
     EMPTY,
     '302383781fa92e3de005c23fb576798ed6e8d54346b694ffe6e2c3da3ca59426'),
    (['power-sum', '--n', '10', '--h', '4', '--format', 'xml'], 2,
     EMPTY,
     '2386ed6ddf2467e1775fc9a80f8e3e7617b39854207bb741ef25fec6f0b2a1e2'),
    # Integer flags are ASCII digits with an optional minus, as DSL
    # numbers are: no other Unicode digits, no plus sign, no underscores.
    (['power-sum', '--n', '١٠', '--h', '4'], 2,
     EMPTY,
     '8d683c7a4b04e15b3342dbb0a3a3d87022a042f1a4f2b32797408961f53087c7'),
    (['mq', '--formula', '1 - t + 2*t^2', '--n', '٧'], 2,
     EMPTY,
     '820ae7eab4f6835036b289140bcf6fd07ab982371d72729909256fdbd5972216'),
    (['power-sum', '--n', '+10', '--h', '4'], 2,
     EMPTY,
     'cc0eca2b2c2eda140480392f6fe09ddec9017592473202c6cdca7b6b5af420e7'),
    (['hseries', '--n', '5', '--order', '1_0'], 2,
     EMPTY,
     'effcbd47a2e8c2aa557331e5e01874ba1f8804cc399a5ad291d362b324207d75'),
    # Tolerances far below the float route's own error bound, up to the
    # largest exponent accepted; one past it is refused with exit 2.
    (['oracle', '--formula', 'p1', '--n', '7', '--tolerance', '1e-30'], 0,
     'bbfa04d5e57f0323d1d87eceb64165ce03fb65a45bad6e1354057833ea452085',
     EMPTY),
    (['oracle', '--formula', 'p1', '--n', '7', '--tolerance', '1e-100000'], 0,
     'a7f25a65977035b9b7c91a68098d17a2e9ed5321a1548930e5ac9a4573e8ebc6',
     EMPTY),
    (['oracle', '--formula', 'p1', '--n', '7', '--tolerance', '1E+1_00_001'], 2,
     EMPTY,
     '84e6aae89bf602e4e9802a0ddbdb6ade698cb2b887562509deda829fa153ede3'),
    (['oracle', '--formula', 'p1', '--n', '7', '--tolerance', '1e-10000000'], 2,
     EMPTY,
     '84e6aae89bf602e4e9802a0ddbdb6ade698cb2b887562509deda829fa153ede3'),
    # --tolerance reads no underscore, which Fraction takes only from
    # CPython 3.11 on.
    (['oracle', '--formula', 'p1', '--n', '5', '--tolerance', '1_000e-3'], 2,
     EMPTY,
     'c57cf32732e95cd17de5394d7ce1b6f29926a5d06670592809db561a501f005d'),
    (['oracle', '--formula', 'p1', '--n', '5', '--tolerance', '1/1_000'], 2,
     EMPTY,
     '305a1cf1c53ff5cf619f0c57a379dffe502d5436baa9d16cb37e6d9d8aab4237'),
    # --tolerance is ASCII too.
    (['oracle', '--formula', 'p1', '--n', '7', '--tolerance', '١e-٣'], 2,
     EMPTY,
     '6270fd57a604334b4bda9323302cf25be684dbc87d3a89ef297ba616d2f3e96f'),
    # A level too large for a list size is refused with exit 2.
    (['minpoly', '--n', '99999999999999999999999'], 2,
     EMPTY,
     '490a6c43e5a8770a7547de006ffd02fd31562c078c487c75c3ebdaf05061f294'),
    (['mq', '--formula', '1+t', '--n', '99999999999999999999999'], 2,
     EMPTY,
     '490a6c43e5a8770a7547de006ffd02fd31562c078c487c75c3ebdaf05061f294'),
    (['eval', '--formula', 'prod(1-t)', '--n', '99999999999999999999999'], 2,
     EMPTY,
     '490a6c43e5a8770a7547de006ffd02fd31562c078c487c75c3ebdaf05061f294'),
    (['oracle', '--formula', 'p1', '--n', '99999999999999999999999'], 2,
     EMPTY,
     '490a6c43e5a8770a7547de006ffd02fd31562c078c487c75c3ebdaf05061f294'),
    # A level whose list fits an index but not memory (2^62) is refused
    # with exit 2 and nothing on stdout.
    (['minpoly', '--n', '4611686018427387904'], 2,
     EMPTY,
     '59b647143a2e3ba558a750709e176249c1263ab34e1546a527f0e76de884ead6'),
    (['mq', '--formula', '1 - t', '--n', '4611686018427387904'], 2,
     EMPTY,
     '59b647143a2e3ba558a750709e176249c1263ab34e1546a527f0e76de884ead6'),
    (['mq', '--formula', '1 + t', '--n', '4611686018427387904'], 2,
     EMPTY,
     '59b647143a2e3ba558a750709e176249c1263ab34e1546a527f0e76de884ead6'),
    # A level far past W_n's reach: 25,513 characters of value.
    (['mq', '--formula', '1 - t + 2*t^2', '--n', '30000'], 0,
     '36c92d2f1a2e624502a7c958f9f52d144f75e90920f1b6f1c58cb987203203ad',
     EMPTY),
    # M_Q shapes the other calls leave out: deg Q > deg W_n, so the
    # resultant swaps its arguments first (3), and a Q whose top
    # coefficient vanishes at z = n - 1 (1/16), also through eval.
    (['mq', '--formula', '1 + z*t - 3*t^3', '--n', '2'], 0,
     '1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2',
     EMPTY),
    (['mq', '--formula', '1 + t + (z - 4)*t^2', '--n', '5'], 0,
     'a6866a3c341481cdbdc10c15e98f1448e5d6e1e5485bebd8293f835a5d0dc7ec',
     EMPTY),
    (['eval', '--formula', 'p1*prod(1 + t + (z - 4)*t^2)', '--n', '5', '--format', 'json'], 0,
     'a187e640b68adb05acf690de6d1b5d92f8dd6286f88353d5edb3a610ae22ab2a',
     EMPTY),
    # Single-monomial z coefficients of Q print as in a power-sum formula:
    # "- z*t", not "+ (-1*z)*t".
    (['mq', '--formula', '1 - z*t + 2*z^2*t^2', '--n', '7', '--format', 'json'], 0,
     'bd15be791a2ee7a3bd9622db9a0417a12aef67f481dde0afa25a9fff2ff45983',
     EMPTY),
    # Out-of-range n or h, refused by the library's own checks.
    (['power-sum', '--n', '10', '--h', '-1'], 2,
     EMPTY,
     'e64c22985ad3182805760798a2196751e1c155a92a1319029f4dd630c6372484'),
    (['cos-sum', '--n', '0', '--h', '1'], 2,
     EMPTY,
     '4a72bc152fbf0a078494ef76aff3a2605eed3aef7b4c415da188bb9e9736af5a'),
    (['sin-sum', '--n', '4', '--h', '-1'], 2,
     EMPTY,
     'e64c22985ad3182805760798a2196751e1c155a92a1319029f4dd630c6372484'),
    (['mq', '--formula', '1 - t', '--n', '1'], 2,
     EMPTY,
     '176be6f3b5bceeb61026ba0b2a059988d3edd4cd734082189251478da1af6320'),
]


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _case_id(argv):
    """The call as typed, with arguments of more than 300 characters cut
    to their start and length."""
    words = [a if len(a) <= 300 else f"{a[:20]}...({len(a)} chars)" for a in argv]
    return " ".join(words) or "(no arguments)"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv,code,stdout_sha,stderr_sha", GOLDEN,
    ids=[_case_id(c[0]) for c in GOLDEN],
)
def test_cli_output_is_pinned(argv, code, stdout_sha, stderr_sha, monkeypatch):
    # argparse wraps help and usage text at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, err = _run(argv)
    assert rc == code
    assert _digest(out) == stdout_sha, out
    assert _digest(err) == stderr_sha, err


# The parser is built once per process, so a usage error or --help must
# print the same bytes when it runs again after other calls.
REPEATED = [c for c in GOLDEN if c[1] == 2 or "--help" in c[0]]


@pytest.mark.parametrize(
    "argv,code,stdout_sha,stderr_sha", REPEATED,
    ids=[_case_id(c[0]) for c in REPEATED],
)
def test_reused_parser_carries_no_state(argv, code, stdout_sha, stderr_sha, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        rc, out, err = _run(argv)
        assert (rc, _digest(out), _digest(err)) == (code, stdout_sha, stderr_sha), err
        assert _run(["power-sum", "--n", "7", "--h", "3"])[0] == 0


def test_parser_is_built_once():
    _run(["power-sum", "--n", "7", "--h", "3"])
    hits = cli.build_parser.cache_info().hits
    for _ in range(5):
        _run(["power-sum", "--n", "7", "--h", "3"])
        _run(["frobnicate"])
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser.cache_info().hits == hits + 10


def _format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def test_every_command_and_format_is_pinned():
    outputs = {(argv[0], _format(argv)) for argv, code, _, _ in GOLDEN
               if code != 2 and "--help" not in argv}
    helps = {argv[0] for argv, _, _, _ in GOLDEN if argv[1:] == ["--help"]}
    missing = [(command, fmt) for command in cli.COMMANDS
               for fmt in ("text", "json", "tsv") if (command, fmt) not in outputs]
    assert missing == []
    assert helps == set(cli.COMMANDS)


def test_formula_file_with_comments_is_pinned(tmp_path):
    path = tmp_path / "energy.txt"
    path.write_text("# energy, the quadratic family\nenergy  # p1^2 - p2 over two\n",
                    encoding="utf-8")
    rc, out, err = _run(["eval", "--file", str(path), "--n", "5"])
    assert rc == 0
    assert _digest(out) == (
        "0ec5395eaacbd64120fcf270f4414a1eb2e23674d065e3661426b7a95a483380"
    ), out
    assert err == ""


def test_formula_file_error_is_pinned(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("# header comment\np1 + # trailing\n  $ p2\n", encoding="utf-8")
    rc, out, err = _run(["eval", "--file", str(path), "--n", "5"])
    assert (rc, out) == (2, "")
    assert _digest(err) == (
        "12199be4c58e85b4ef07362cbae0155faa7a79deb7e79bdc6d74ccff3463e4dd"
    ), err


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# identities replays one full cycle (IDENTITY_CYCLE new formulas and half
# as many repeats), so every (family, degree, kind) slot is pinned.
REPLAY = [("identities", 270), ("crosscheck", 40), ("levels", 20)]
REPLAY_SEED = 601000
REPLAY_SHA = {
    "identities": "96fad3e12105a2f584b87c5b9e4847ccca4275b8e72718e7db96baa746d2a78d",
    "crosscheck": "0de8d5e84d1fc0a7496d793fab7eb1a5c5fe3914a162864885a550e95fdb2324",
    "levels": "86d7033f111a45fd18be38007b8f25cc0739daf819d11934b27c8f7d2a70bdc5",
}


def replay_digests():
    """Per workload, the sha256 over (argv, exit code, stdout, stderr) of
    its first ops for one seed; the workloads run in order."""
    workloads = _load_workloads()
    digests = {}
    for workload, count in REPLAY:
        h = hashlib.sha256()
        for op in workloads.generate(workload, REPLAY_SEED, count):
            h.update(json.dumps([op["argv"], *_run(op["argv"])]).encode("utf-8"))
        digests[workload] = h.hexdigest()
    return digests


def test_replayed_bench_ops_are_pinned():
    assert replay_digests() == REPLAY_SHA


# Formulas whose parsed term order is pinned: every builtin family and
# power at weighted degree <= 18, and the crosscheck workload's formulas.
TERM_ORDER = {
    "h": [f"h({r})" for r in range(1, 19)],
    "e": [f"e({r})" for r in range(1, 19)],
    "mixed": [f"mixed({a}, {b})" for a in range(1, 18) for b in range(1, 19 - a)],
    "p1p2z": [f"(p1 + p2 + z)^{k}" for k in range(1, 10)],
    "energy": [f"energy^{k}" for k in range(1, 10)],
    "crosscheck": [
        "p2*prod(1 - t)^2", "prod(1 + 4*t)", "(p1^2*p20 + p11)", "energy^2",
        "prod(1 + z*t - 3*t^3)", "mixed(2,3)", "e(5)",
        "energy*prod(1 - t + 2*t^2)", "(h(6) + z*p3)",
        "(z*p1*p17 + (-1)*p9^2)", "prod(1 - t + 2*t^2)",
    ],
}


# h(r) and e(r) share one order: both sum over the partitions of r.
TERM_ORDER_SHA = {
    "crosscheck": "c981ac57c4ec0bced9dc53e7e8a3b128e157b6fa358974bef62542aee65c7b4c",
    "e": "ee91a421681e53a126757323af336e498dc27ae41c1eb0fbfdd914616f823e06",
    "energy": "f1ee7368b4d4f955f4c2a7f67ff7bc08974efe5886ccf758f6807e7573beec85",
    "h": "ee91a421681e53a126757323af336e498dc27ae41c1eb0fbfdd914616f823e06",
    "mixed": "e05cce61f14abecc7f3d36c2723cf2633261b88ad4da443641a0e9a560d92649",
    "p1p2z": "9d784bd5b7dc10e5f555b0e6e275801b9739de2a030b2ac417277d780cc3ca42",
}


def term_order_digest(texts):
    orders = [list(parse_formula(text).psi_star.terms) for text in texts]
    return hashlib.sha256(repr(orders).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("group", sorted(TERM_ORDER))
def test_term_order_is_pinned(group):
    assert term_order_digest(TERM_ORDER[group]) == TERM_ORDER_SHA[group]


def test_oracle_output_ignores_term_order():
    # h(6) typed with its 11 terms in reverse order prints the same bytes
    terms = str(parse_formula("h(6)").psi_star).split(" + ")
    assert len(terms) == 11
    reversed_text = " + ".join(reversed(terms))
    assert list(parse_formula(reversed_text).psi_star.terms) != list(
        parse_formula("h(6)").psi_star.terms
    )
    assert _run(["oracle", "--formula", reversed_text, "--n", "9"]) == _run(
        ["oracle", "--formula", "h(6)", "--n", "9"]
    )
