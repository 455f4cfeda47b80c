"""Pinned content of every generated benchmark trace.

The synthetic suites stand in for the paper's CBP-3/CBP-4 traces, and every
stored result, golden value and figure is keyed by their content.  This
table pins, for both suites at a short and a full length, each trace's
content fingerprint (:meth:`repro.trace.trace.Trace.fingerprint`) and its
conditional and instruction counts, so that any change to the kernels, the
emitter or the generator that moves a single PC, target, outcome, kind or
gap fails here.  The traces are generated with the on-disk trace cache
disabled, so the generator itself runs.
"""

from __future__ import annotations

import pytest

from repro.trace.trace import Trace
from repro.workloads.emitter import KernelEmitter
from repro.workloads.suites import generate_benchmark, get_benchmark

# (suite, benchmark, target conditional branches): (fingerprint,
# conditional count, instruction count)
PINNED = {
    ("cbp3like", "CLIENT01", 300): (
        "599850d4d7f73bb510bd204394dabbff0d025fe1f842a88e07507393542deabb", 1109, 11090,
    ),
    ("cbp3like", "CLIENT02", 300): (
        "6887c05d39adbc1aafa11ac01f2b1f564b4fbd2171b619c13b4777f76999604e", 4046, 40460,
    ),
    ("cbp3like", "CLIENT03", 300): (
        "f741ba1c84975b260601d2b8fe0d293f122c84da30419fed87971c018124dba9", 2920, 29200,
    ),
    ("cbp3like", "CLIENT04", 300): (
        "202fb35eb2985f562f8e49354fd350cd37c575f52a8372ab0ddd7dd4d68b5b35", 1063, 10630,
    ),
    ("cbp3like", "INT01", 300): (
        "5a98c81b8e8a74fc1161fcaf10ac6c7a758568f88a4d6fb5a49173d7d0db6ebd", 3080, 30800,
    ),
    ("cbp3like", "INT02", 300): (
        "721d2df8efc6c42511071b70185f5d9525a21eadac37d408f9ed700adbd7510d", 1000, 10000,
    ),
    ("cbp3like", "INT03", 300): (
        "16755a4868cf3a8b9ff2aaca616966ec8d79b23a9c1d7024947d00f3b7c989b2", 1776, 17760,
    ),
    ("cbp3like", "INT04", 300): (
        "25ed9d669bab55a708713c3420a9f7e9912d4b53b4b53a19519324c20d6b85c0", 3520, 35200,
    ),
    ("cbp3like", "INT05", 300): (
        "3ee9361f01b2ee4f54fc8673b5fe5fe2c459f953906e1591c626a6569370b4ba", 1133, 11330,
    ),
    ("cbp3like", "MM01", 300): (
        "a59fbedc9f2dc26adee6d89698617bf8a7be4680943b9b975285d3f2377dc0c6", 1312, 13120,
    ),
    ("cbp3like", "MM02", 300): (
        "af48d59352babe535805f7ea6eec574aeb2ad0387cd306b104c0136d8c3ffae4", 1677, 16770,
    ),
    ("cbp3like", "MM07", 300): (
        "0866ecc3a77c0f4fb8ecee8d87b6fede90bab858289fce1c83328638989b23c4", 4876, 48760,
    ),
    ("cbp3like", "MM08", 300): (
        "90a28ceac99d9e378aa416dfe6c1778a586338d7054b6cff327e33ea6414891b", 4320, 43200,
    ),
    ("cbp3like", "MM10", 300): (
        "182f69576fce9ee5dbf1869c578c89c2faaef7b3a8b3937506a65779e46b47f7", 1720, 17200,
    ),
    ("cbp3like", "SERVER01", 300): (
        "9c5b6b7758595ae5725b9e43a17b4c05187400421458c3425a06a908654b0096", 2229, 22290,
    ),
    ("cbp3like", "SERVER02", 300): (
        "550ae2616cecfeab9c8d0427f32e060c4a7b6bdd29fdddb314ee0e8eb82ba975", 2560, 25600,
    ),
    ("cbp3like", "SERVER03", 300): (
        "75a4ce035d2482cfb384e44bc69f3c7993ac8018879f69ac9b5db7d32dabc156", 2280, 22800,
    ),
    ("cbp3like", "WS01", 300): (
        "d2c9fbca7fd6b57f6e340e289c622b1771183260b83c7aa0fc869353b0756e46", 2920, 29200,
    ),
    ("cbp3like", "WS03", 300): (
        "433a492b51ad1e3a734d49e0aef24a25984f87b4fae565d5bbbf92c9c771a16b", 3513, 35130,
    ),
    ("cbp3like", "WS04", 300): (
        "30271ae31285683be249f1eee5303af608ff8eaee6e56e3fb8c5018d7ad8d103", 5214, 52140,
    ),
    ("cbp3like", "CLIENT01", 20000): (
        "9e53b1e4327692b7d826f26de1a694d3cfc48408f216a2b15fbb680458483c31", 21071, 210710,
    ),
    ("cbp3like", "CLIENT02", 20000): (
        "849e43df9a629781d2fd3ca4436fdd97a1dc5cc66c3ea321cf939fa9a67f6df1", 20078, 200780,
    ),
    ("cbp3like", "CLIENT03", 20000): (
        "dbca2c428a8ade80bf7eedd219d5be328a20e200ef436fe5da74a372029f3d04", 20440, 204400,
    ),
    ("cbp3like", "CLIENT04", 20000): (
        "ea4524f8b0b2a7c7e8d2a40c3c0237b92c01d31e544663175ce940eca2adcd70", 20197, 201970,
    ),
    ("cbp3like", "INT01", 20000): (
        "be86053c320b5b73fe94e48920965b2a8f8c2a187f503fc648a3e4d897d1a0c4", 21560, 215600,
    ),
    ("cbp3like", "INT02", 20000): (
        "bef7d51483542b459014b0dbd415b0e66051b2597a1dcb6ece9b8fda5dcac175", 20000, 200000,
    ),
    ("cbp3like", "INT03", 20000): (
        "89ce64805d0a38daea0590957bcb7f35e1063a59162bb16863f94d1b486a31f2", 21312, 213120,
    ),
    ("cbp3like", "INT04", 20000): (
        "45d69a46a6f918eedbae63a6490c02373489efd685ab6970a83be63f679729b0", 21120, 211200,
    ),
    ("cbp3like", "INT05", 20000): (
        "969f3e60cd9c5b81f4b125687484718c6559c65755726d3f4cc76a3e90f9d585", 20394, 203940,
    ),
    ("cbp3like", "MM01", 20000): (
        "463543b61e83db07da6a211925e19bbf48e398e19a50cfced44ed2e72cb3e7e6", 20992, 209920,
    ),
    ("cbp3like", "MM02", 20000): (
        "48d22c612e05796c662c24cbe67116458f505ca4903673e41e6378b5ec22a010", 20124, 201240,
    ),
    ("cbp3like", "MM07", 20000): (
        "41ca528e01fe699a5bace35ed46badc9883d9ccfec7098071b4fd119edc7abdf", 24380, 243800,
    ),
    ("cbp3like", "MM08", 20000): (
        "258f78f854d040ee82c6ee96593ab79be21bd9feafeb6e8e077f2365a8deba6a", 21600, 216000,
    ),
    ("cbp3like", "MM10", 20000): (
        "81e07ffce083c610d734ee6ec28f62c2f53aa85881780ac54e101bbe8ba63758", 20640, 206400,
    ),
    ("cbp3like", "SERVER01", 20000): (
        "ac32e225c056534d1e137a7efe6be1186c55ef011cfdd5e885ca008bb2f4367a", 20061, 200610,
    ),
    ("cbp3like", "SERVER02", 20000): (
        "ee78b0ea44ec792f3480d71481a73e55721053f4ef61ea456ffa7ffe36dd448f", 20480, 204800,
    ),
    ("cbp3like", "SERVER03", 20000): (
        "2f074ed2509e756ccb68fab7ae293e59fcd06a623b2f87862ea0cd4f7bf4aefb", 20520, 205200,
    ),
    ("cbp3like", "WS01", 20000): (
        "7aaaf80a12bcc7c059f3cf700fb7325b449dc20d23fdae9e19729e225d0a18ed", 20440, 204400,
    ),
    ("cbp3like", "WS03", 20000): (
        "d0351d51395bf1e11c33e774d74f548db8c8fbe59521a3a64fc6b7ba1ecdf87b", 21192, 211920,
    ),
    ("cbp3like", "WS04", 20000): (
        "4609cc67d6aa5619daa4e3c110f005be5d983d0ec7049f2e4c06aaa26618fd56", 20736, 207360,
    ),
    ("cbp4like", "SPEC2K6-00", 300): (
        "bea1ed06f5d745fedf2eb22f00b46aa30306e75d61fac77fffc4b778a599ebe9", 3080, 30800,
    ),
    ("cbp4like", "SPEC2K6-02", 300): (
        "e66731e9ef0ee4461407d5aca180f518b833f0d3d33309bcdfa170a58165e616", 1053, 10530,
    ),
    ("cbp4like", "SPEC2K6-04", 300): (
        "96c52a4db1d5c37d27b0a5506b70811444b2ee540920a414f2e29f6d9ddc2608", 3336, 33360,
    ),
    ("cbp4like", "SPEC2K6-06", 300): (
        "faf8eba8d794368058772a96d2a9d17a177916858062723d684479e50ed34be2", 2640, 26400,
    ),
    ("cbp4like", "SPEC2K6-08", 300): (
        "57a1f890530b7846df07a01d166291e273308317ee83e410682d7eadfe57b1a6", 1440, 14400,
    ),
    ("cbp4like", "SPEC2K6-10", 300): (
        "ad81dba1e08b77bbce5c371cdc6eda1a0d39d2831f616a71f304db0bb7fb1e91", 1080, 10800,
    ),
    ("cbp4like", "SPEC2K6-12", 300): (
        "6704e5a9da00e19066120024b60f6e1cf2264a1629b35a7bfa5cfa1cac553153", 3520, 35200,
    ),
    ("cbp4like", "SPEC2K6-14", 300): (
        "3c8f66a5f7f5250b69d61d5c0abd624b74fac05cf2e92b69b0c796531aa08bb9", 2800, 28000,
    ),
    ("cbp4like", "SPECFP-01", 300): (
        "f0eb1cf3ab6927c0f420e8fe754e501cc4f90efbe5f3c0443e5afe6e242e2f42", 1808, 18080,
    ),
    ("cbp4like", "SPECFP-02", 300): (
        "324e2f9a4d7ffe4b4e50c7477e8a210162ed4485c9ee5534299edb866c77f6c4", 4320, 43200,
    ),
    ("cbp4like", "SERVER-01", 300): (
        "a0408f06e7f05aec2b4bbdc4b70797b1edea9f0596af2776925a08fc169f6804", 1279, 12790,
    ),
    ("cbp4like", "SERVER-02", 300): (
        "97d5570d12b90303284481a6bf7e569fbf454487026bdc292db2294cd70400ad", 2621, 26210,
    ),
    ("cbp4like", "SERVER-03", 300): (
        "25a0a9a22a4ad346009cfa48573fd2c4916d16c0e2ad1f2609a7b0fb313e25ef", 2120, 21200,
    ),
    ("cbp4like", "CLIENT-01", 300): (
        "01aac47d4ed1076267877c381d0c292f91d6c39848f6311beff64c107df76929", 1085, 10850,
    ),
    ("cbp4like", "CLIENT-03", 300): (
        "b0af21fdecb501ae295fd77dd76830a95a4828b6c1fdac0d86b49ba5c3125cf7", 2800, 28000,
    ),
    ("cbp4like", "MM-1", 300): (
        "eb92bc05f32cba132b3960838bfdc948ea5ed5d28d301db7c0fcb3e72a76704a", 1792, 17920,
    ),
    ("cbp4like", "MM-4", 300): (
        "c8e6babe59a880eeffb9ae20ad7e45055b076b0d74da4aced2d99a46f583a213", 8316, 83160,
    ),
    ("cbp4like", "MM-6", 300): (
        "44a886057f5de9c71be0b3a41eb9806f452c46b2a600cdec55832feec86a1083", 1093, 10930,
    ),
    ("cbp4like", "WS-01", 300): (
        "9f16736811f341cbb2e47e8001254a96715d5b5fc634312baf128b6c5fb80a67", 2170, 21700,
    ),
    ("cbp4like", "WS-02", 300): (
        "481d0fe13c5fc3631000c25f26e4f4e2bb0996b03faae09b71d7fd079da4a87e", 2560, 25600,
    ),
    ("cbp4like", "SPEC2K6-00", 20000): (
        "7fdaae6bfe9db946ec3bea269e1144a1d3cf68fa300c6eb6ed8c5f7f7656a7aa", 21560, 215600,
    ),
    ("cbp4like", "SPEC2K6-02", 20000): (
        "8b116e3c8bb008584a1c80435f680a943736bd3bfa2afc42a76dbdd36fa9bdca", 20007, 200070,
    ),
    ("cbp4like", "SPEC2K6-04", 20000): (
        "b2201d9b91f3956022ccee5722655f38819f7800d84de147035ebaad8b298958", 23064, 230640,
    ),
    ("cbp4like", "SPEC2K6-06", 20000): (
        "ab09fc9506da7c544308e7e0fe30eb83fd5d6b6c5647ec9ccbe7da2a4c1a20de", 21120, 211200,
    ),
    ("cbp4like", "SPEC2K6-08", 20000): (
        "3868eb46a368ee2726aee6b1fbec831913349f374cac3c89c588441210c23d78", 20160, 201600,
    ),
    ("cbp4like", "SPEC2K6-10", 20000): (
        "84958db20f10c80d5517c39e0f7ca57b11337c077d66d3185d08098af71c0b5e", 20520, 205200,
    ),
    ("cbp4like", "SPEC2K6-12", 20000): (
        "728d60db9435526f4da76fc289a6686b4bce3ec22810ec941653ea400b9d69f2", 21120, 211200,
    ),
    ("cbp4like", "SPEC2K6-14", 20000): (
        "b70b4028ff1de9e1347e7b0e46b09f418df012430663c702582b64f56f278b1a", 22400, 224000,
    ),
    ("cbp4like", "SPECFP-01", 20000): (
        "4687118d3cb74386ef9f9483fb1c2bbf033513d8ae7edc886f3d332b63037211", 21696, 216960,
    ),
    ("cbp4like", "SPECFP-02", 20000): (
        "afd95087d3c4c45021a7f0f2dac12b73a45928cbbb9473e7e858c0d335185879", 21600, 216000,
    ),
    ("cbp4like", "SERVER-01", 20000): (
        "2e52ed5d4c80da95ec2ecf6a0401db9b7cfa271bfce8e8af86acb2dd403e45dc", 20464, 204640,
    ),
    ("cbp4like", "SERVER-02", 20000): (
        "cc767d2d19f5a51b1b32c2f76036eb739bc77b37f1e12891cfab35d96a335031", 20968, 209680,
    ),
    ("cbp4like", "SERVER-03", 20000): (
        "8e21bebec34a7fd0ab88334bd86d94913fbfd1c741df924e9510c24caa0367d8", 21200, 212000,
    ),
    ("cbp4like", "CLIENT-01", 20000): (
        "ddd09af27b91f2826599417f02fc9c4e0027d7b4f28225582e9b35c65b2c2794", 20615, 206150,
    ),
    ("cbp4like", "CLIENT-03", 20000): (
        "3fda8a69f03ca3f7ac46d4b5860bf448beaed24d22796e2b33df0b86fdfafb6e", 22400, 224000,
    ),
    ("cbp4like", "MM-1", 20000): (
        "fbe2960d417acc7835eb965670c011a7a8ce3f8be1261d3290a6a1ad21525f86", 21504, 215040,
    ),
    ("cbp4like", "MM-4", 20000): (
        "0f056d6d5e934463f3cb9a6b240d0e9f47a8d46ab73f5e8215b8fb7394951789", 24948, 249480,
    ),
    ("cbp4like", "MM-6", 20000): (
        "bbcc20e63d1cc8f1792d1e28932c272a116b6f41179bb1c123d9706fede13fb9", 20767, 207670,
    ),
    ("cbp4like", "WS-01", 20000): (
        "16dd844084bd64a1f80bc47e7c57d9bf96d8822cfeba3b2a5ad41012a28b0466", 21700, 217000,
    ),
    ("cbp4like", "WS-02", 20000): (
        "ead3c8574dbd302de527e6fe54b0a0b845ae6c4b2c5e20bce07d9423d42d9e7d", 20480, 204800,
    ),
}


@pytest.fixture(autouse=True)
def _no_trace_cache(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")


@pytest.mark.parametrize("suite, name, length", sorted(PINNED))
def test_generated_trace_matches_pin(suite, name, length):
    trace = generate_benchmark(
        get_benchmark(suite, name), target_conditional_branches=length
    )
    assert (
        trace.fingerprint(), trace.conditional_count, trace.instruction_count
    ) == PINNED[suite, name, length]


def test_every_emit_kind_matches_pin():
    """The suites emit conditional branches only: pin calls and jumps too.

    PCs are allocated on first use, interleaved across the four emit
    methods, from base PC 0 so that a back-edge target clamps at zero.
    """
    emitter = KernelEmitter(base_pc=0, instruction_gap=3)
    for step in range(60):
        emitter.loop_branch("loop", step % 7 != 6)
        emitter.branch(f"if{step % 3}", step % 2 == 0)
        if step % 5 == 0:
            emitter.call(f"call{step % 2}")
        if step % 4 == 0:
            emitter.jump("jump")
    trace = Trace("emitter-mix", emitter.drain())
    assert (trace.fingerprint(), len(trace), trace.conditional_count, trace.instruction_count) == (
        "dd8143cd3dee356da267bb70ee6c11c4da23965ba6ff496c3a1fed74552326e9", 147, 120, 588,
    )
    # Materialising each record re-runs BranchRecord's own checks.
    assert all(record.taken for record in trace if not record.is_conditional)
