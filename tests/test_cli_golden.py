"""Golden CLI outputs: the exit code and the sha256 of stdout and stderr
of every README example and of the pinned minpoly/mq/hseries/eval/oracle
calls, run in-process through cli.main.  Any change to a printed byte
of these calls fails here; an intended change updates its digest."""

import contextlib
import hashlib
import io

import pytest

from cyclosum import cli

EMPTY = hashlib.sha256(b"").hexdigest()

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
     '801dd0d3b858a6c1ba5c5f25a588cf2bf27e9e7bea64a4837a4cd136248efd46',
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
    (['eval', '--formula', 'energy*prod(1 - t + 2*t^2)', '--n', '64'], 0,
     '2e73ae87ace503dfd90c4dd2d5db22726961d97150ca872767d36dcd003e1413',
     EMPTY),
    (['oracle', '--formula', 'prod(1 + 4*t)', '--n', '300'], 1,
     '256f805f695e71e657e016469c47a61c1b00b6d2dde0e8a8814d4f02d7ee5871',
     EMPTY),
    (['oracle', '--formula', 'p2*prod(1-t)^2', '--n', '200'], 0,
     'a92f4811e1d091acfa99de2519033a7df5016a35c68d87b106c8d22e48cb5e1f',
     EMPTY),
]


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "argv,code,stdout_sha,stderr_sha", GOLDEN, ids=[" ".join(c[0]) for c in GOLDEN]
)
def test_cli_output_is_pinned(argv, code, stdout_sha, stderr_sha):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc == code
    assert _digest(out.getvalue()) == stdout_sha, out.getvalue()
    assert _digest(err.getvalue()) == stderr_sha, err.getvalue()
