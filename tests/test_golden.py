"""Golden digests of CLI output: refactors must keep every byte.

Each instance document is pushed through the commands below, and the
sha256 of (exit code, stdout, stderr) of every command is compared with the
pinned table.  A mismatch names the instance and command that changed.

Run ``PYTHONPATH=src python tests/test_golden.py`` to print the table for the
current code (only to be pasted back after an intended output change).
"""

from __future__ import annotations

import hashlib
import io
import sys

from shedpoly.cli import entry
from shedpoly.fileio import read_triangulation, write_triangulation
from shedpoly.griddiam import uniform_grid_triangulation
from shedpoly.triangulation import PlaneTriangulation, shedding_sequence
from shapes import pentagon_fan, split_square, stacked_k4


def run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        code = entry(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def fan(n: int) -> PlaneTriangulation:
    """Apex 0 over the path 1..n-1."""
    return PlaneTriangulation(range(n), [(0, i, i + 1) for i in range(1, n - 1)], range(n))


def instances() -> dict[str, str]:
    docs = {
        f"stacked-{n}": run(["gen-stacked", str(n), "--seed", "0"])[1] for n in (10, 40, 120)
    }
    docs["grid-5x5-l3"] = run(["gen-grid", "5", "5", "3", "--seed", "0"])[1]
    docs["grid-8x6-l2"] = run(["gen-grid", "8", "6", "2", "--seed", "0"])[1]
    docs["stacked-8"] = run(["gen-stacked", "8", "--seed", "1"])[1]
    docs["fan-40"] = write_triangulation(fan(40))
    docs["ladder-15x2"] = write_triangulation(uniform_grid_triangulation(15, 2).T)
    docs["split-square"] = write_triangulation(split_square())
    docs["pentagon-fan"] = write_triangulation(pentagon_fan())
    docs["stacked-k4"] = write_triangulation(stacked_k4())
    return docs


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def digests() -> dict[str, str]:
    table: dict[str, str] = {}

    def record(label: str, cmd: str, result) -> str:
        table[f"{label} {cmd}"] = digest(*result)
        return result[1]

    for label, doc in instances().items():
        tf = read_triangulation(doc)
        u, v = tf.G.boundary[1], tf.G.boundary[0]
        record(label, "shed --base", run(["shed", "--base", str(u), str(v)], doc))
        drawn = record(label, "embed", run(["embed"], doc))
        record(label, "embed --audit", run(["embed", "--audit"], doc))
        off = record(label, "lift", run(["lift"], doc))
        trunc = record(label, "lift --truncate", run(["lift", "--truncate"], doc))
        record(label, "lift --format obj", run(["lift", "--format", "obj"], doc))
        record(label, "verify drawn", run(["verify"], drawn))
        record(label, "verify off", run(["verify"], off))
        if trunc:
            record(label, "verify truncated", run(["verify"], trunc))
        record(label, "diameter", run(["diameter"], doc))
        if tf.grid is not None:
            record(label, "diameter --grid", run(["diameter", "--grid"], doc))
        if tf.G.n <= 9:
            record(label, "diameter --exact --witness", run(["diameter", "--exact", "--witness"], doc))
    return table


GOLDEN: dict[str, str] = {
    "stacked-10 shed --base": "b1f2957204ea8905ea700f2044bd25fc9878acbad30395350543a3b774ee07d6",
    "stacked-10 embed": "39759a426ce4c58823566a0d90da32d4df42f3831536712b1a6c0c2df0e8aca4",
    "stacked-10 embed --audit": "64cc3b85d93e5d2a5dffedfc66129398ab66b07d5a2f8812d362bf8a0e9b8aec",
    "stacked-10 lift": "74be38ad9922621312a112dd36fb6af033ec92f2a34acf1320adbe6dc3c1d7ce",
    "stacked-10 lift --truncate": "fdd2a47e3f4a7dbafc514cb93433db41456006167c4836317cc26b438cd3dff1",
    "stacked-10 lift --format obj": "d06d32c5f4557730b12565e98306e225524a3e78d3206590dc499fbda1d7b485",
    "stacked-10 verify drawn": "b9b9bc5be615f08f842ff839eddd797b7fd36d3b3a73dcb2cc18ba01b1201234",
    "stacked-10 verify off": "a183c006657972f8161c3b5e82fd99333ecd021fb0fd74158a0db2910df599e6",
    "stacked-10 verify truncated": "5afb6e912fb165979177c30f92a758953a311d09db9717f91d9a52cccb99f319",
    "stacked-10 diameter": "97ccaf6ae69890037f507178625b8ca91175d12f3c5d3912347ae11c59bee944",
    "stacked-40 shed --base": "15eecbfb6c3d428337e58b9d525c291e582e9b5af587b75123ed3f8143f83f4c",
    "stacked-40 embed": "37311bfe1c600f49aedf132f36d37f5e523c396c6b4601383a3c47a341711985",
    "stacked-40 embed --audit": "00bf16ea3574372157792f6876e33e4a967c3792fabec0b42744c7ab97a9d937",
    "stacked-40 lift": "8eb23af43f7eb0e253986d60298380f8152ef5734e02d7e764df0c49690a0c8c",
    "stacked-40 lift --truncate": "a20fbac8e329c0df1e691f6bdb38ac7a9fd5cda56905dc86dbb2dc833b27910e",
    "stacked-40 lift --format obj": "4097a8350c9ea1be642c1a881d343edfa27c4034aa746a2967b98982c2539fc4",
    "stacked-40 verify drawn": "9dbf1a5a0c56d7b9bca9733ccfc50dd6c932ffbf7b75daf91094b645c19db8d6",
    "stacked-40 verify off": "b3609bae6135b6efe8db3f84094d60eae00dca22afc0a6670a45be0cf365e46b",
    "stacked-40 verify truncated": "b17290e242ea5b0883eb9da9b5eae626e0fd9b3d1d7ac0c1bacfc8d63a310c10",
    "stacked-40 diameter": "e800781c39392a470d90247530c9c55ea09a414e218a0c053a464627666b5326",
    "stacked-120 shed --base": "f261451669677f922e9a6c921cc57575d1dc9d06c2573079bf9350ad143250ed",
    "stacked-120 embed": "71b52bcef6ceb79753a8294c87f63069849cc04bee8b8c9f488706bca0528019",
    "stacked-120 embed --audit": "ebd781457b6e2e18a752e5ce46154f03ea0480dbd5942363025aef07ac103491",
    "stacked-120 lift": "2819b598852f607ffc88b65bf156683e0c38c8a3bac3f7a27904a40f05000096",
    "stacked-120 lift --truncate": "5b94e5758b70c62c086ecdfe57583060b81a918e63f3ae846a43427bf0fd4864",
    "stacked-120 lift --format obj": "54a79a05a4ed892cab3f96a7901ad878f828939adb907c2a1f1b1bdae8d97c57",
    "stacked-120 verify drawn": "26a8e23eaa7580b8294c0a076a032727b2bbe8fe0c57e93425e11342850b5a56",
    "stacked-120 verify off": "a9b5f382c762bfd6af30357ce4921efdc33317d43af89698473cdcf606aad9b9",
    "stacked-120 verify truncated": "3ec577e55ae1603102ba47e225fe92f2d69facdc246be04eead1aa00b8a45166",
    "stacked-120 diameter": "0c51a8717706303f81eb2503da17de1120e2bc9f0873bd98195ea57cf24675f0",
    "grid-5x5-l3 shed --base": "d4022da1a3fcb6d0ff1c8188ac1f2e8423c272bdfc547099d51a9f492004407e",
    "grid-5x5-l3 embed": "736332df9bdc22e73a663fc2a1d910910951bd4fc4c23981559ea0e2205e5285",
    "grid-5x5-l3 embed --audit": "c7b7d017ac876bbfd516f211c372ac736963f29d9e7d06501c22eaa761698a9e",
    "grid-5x5-l3 lift": "bab4cd0ff54f27d9210f8050356ea7b19a427e827a66683343fd86984463984f",
    "grid-5x5-l3 lift --truncate": "30254155a72acd99b1b821b72ae821ece47dbca3ce9e92ae6780381cebfc0583",
    "grid-5x5-l3 lift --format obj": "9e1cd5e78d75feff6dbc02c5c52252d4f1f3df94fae7b57604b474a0383652d3",
    "grid-5x5-l3 verify drawn": "69a1b8128220fc140c04c4309698bfa5248b1b4e4ab9b0c1ff08e9755960e826",
    "grid-5x5-l3 verify off": "a33a4564689fd1f8fe6525559d09cc6b8f5674ab0689137b26c413c7d8f186f1",
    "grid-5x5-l3 diameter": "95cc547a1fc29fe97ffb08853b4868ddce21eac796b2ef4c2e1c3e245f7b6ae8",
    "grid-5x5-l3 diameter --grid": "6e63725ef4b2342fd7b9c8f1742128429265766bbb77e61ab53c9b7bc2a09f35",
    "grid-8x6-l2 shed --base": "f5875edcc9c2ef0a52089b01570bb7fd1cd1d0cdf0b4c1e9b0959165f14214b7",
    "grid-8x6-l2 embed": "44cae10339af47b4527523b1d634614054d9e9fe4994e481d77e2b887240d516",
    "grid-8x6-l2 embed --audit": "afbd3d9942d46eb5de5bcb6130eb8b5c400322f145b7918add586a6cc21e3331",
    "grid-8x6-l2 lift": "242cc8dd7f483bc45248f5e0cdf23f20451072fc785990bf6af795936d17a099",
    "grid-8x6-l2 lift --truncate": "5ee5ebe4fb2369909a2587804fbbb252936cdd0ec88c62ec7cb9070f7bfa8aca",
    "grid-8x6-l2 lift --format obj": "ca9fae3956aecd3427d670fc86e360045c973b6ad3a0c5e3d8f96b7305ad1117",
    "grid-8x6-l2 verify drawn": "bb48b8a3de1595f1f5258d7eaf90720411c480b4c3874e4cbdd987e496dba1b7",
    "grid-8x6-l2 verify off": "48dc5fd493aeebcd4ccbcd1989f9fb690cf2e3592eefddb346b9ced491c8576a",
    "grid-8x6-l2 diameter": "dd3fe9cf03b4fe2d9dfccbc85d3cb355e3f76792566afa6f4b343510da17bd12",
    "grid-8x6-l2 diameter --grid": "7e5a361cf49bf2af1448d14aeef81d1b9881e5377d0c7912b56a09ea1a5c05fc",
    "stacked-8 shed --base": "776c49ce63c790d79be9666221fef672e6aa80342b2c40df307edfb158ea8276",
    "stacked-8 embed": "169f9becd125e1445bc0079c7766b0609e213b53e9faf2239328f0911cfd1c63",
    "stacked-8 embed --audit": "f78a5e22568e25d0555d9aae0ed678ea84a024d9d182a90010ac16e39e02ec06",
    "stacked-8 lift": "bbd727cd6a8c21e7b137ec8b889afc22554ea947a5acf11246110dc3c6dddcc2",
    "stacked-8 lift --truncate": "3bf7a771a685cb2816980fedb332014afcef88717de0ba74e3da6e99f9dcfc5c",
    "stacked-8 lift --format obj": "38d02e5e32f545e5e2f38b7db9cd3227ba0163578a7dc60c2ab2f2acfe88961e",
    "stacked-8 verify drawn": "aa1d2e9a47ebc8bb9982530425d8db3e4dd6e1b62460d6f347d3db0c4f0f1fae",
    "stacked-8 verify off": "f526251b3ee32a900c9d785cd59ad95328ab2ae094ff4c43b2782eca94cdd43a",
    "stacked-8 verify truncated": "cea43aa1e44a59ffae74deb0b02d8ac4c7ff1dcbbf5bb6a733d78d5702aaec55",
    "stacked-8 diameter": "3ea039e7559514de0ab167be35dff2ce89138ec745597e6dea045949c94d6974",
    "stacked-8 diameter --exact --witness": "ada73c6cfc19c4718ebfbcd98c9377b33ad4b31d60ba76b66b9089eb66131a29",
    "fan-40 shed --base": "159d5203dc90f361cd92f3b170f157e915f6216d6f08079b034f235772076456",
    "fan-40 embed": "12497f68dbaa4ae4855bc47aae6890582b075e756b522569bda9b05f7ca0ea36",
    "fan-40 embed --audit": "d0f34566d347abdf3d68517a20e49dbc82b6d08b3cc0ff0c17381865344e15d1",
    "fan-40 lift": "bc40908f655ba979c8af1993e854c3d05a20b666be98c0095137067587fdf400",
    "fan-40 lift --truncate": "f6f4b9fe1b1fe4add7b74b57e6754dafd9812fcec347637fd39208369e30adbf",
    "fan-40 lift --format obj": "752f284e612c2b4bce6576d72caa304112c53eb19220de30b8dd1989c308d5c3",
    "fan-40 verify drawn": "48a4c6f1f7706f18fad6a241e117fe2cf45ab16a776afd0e66e6f526bd8c4bc9",
    "fan-40 verify off": "d9736ce6815503b33afcbff9914f481b79dc19059ede16363a941afca09d0207",
    "fan-40 diameter": "72611a97c506a379a56897677c49b89e8789087f77dd1e121370e0414ba44834",
    "ladder-15x2 shed --base": "ff17e8608e00e095e8385025be25a1587607b2fefc07a8ead39bed24ac17f641",
    "ladder-15x2 embed": "7cded8044d0ba4692826b47bd82367d42da6e249c7093e30ac7ed9cce4d5476a",
    "ladder-15x2 embed --audit": "7711fcbd0f39ae0c7ac7f2ad35d6bece8650ad848ef9f2e42bc63f65b8983f55",
    "ladder-15x2 lift": "f49b8e0be3a8adcd6b2ffad28c775432ae4c55a1a470ec0dab907cc81dabd915",
    "ladder-15x2 lift --truncate": "4ae03679eccca36c3684dd646e4c10664e4ade703d329c5a6f18642dd9aed768",
    "ladder-15x2 lift --format obj": "4968a34fb50863736f0211cddba9e08db503576d4795bc5c7dabb0561cba3ce2",
    "ladder-15x2 verify drawn": "dac483daafeb9d991ae797c2d43c44a2d9b351908e00bbb8d6a10887527a4fb4",
    "ladder-15x2 verify off": "8868e8d0fd793f6cf73b18f1c79c4cdd9c9e8c8a09cbd4cad99cf4f61902572c",
    "ladder-15x2 diameter": "87174a4a7f3acb11cae5f3580970ae7f53cbffe32048bb9146f2aab9226e73b3",
    "split-square shed --base": "1141cd92a3b3e6135f9165643d221b271070124673b48e0066f5138afc36c985",
    "split-square embed": "5b3898c42e1f69c6e4d786290cc6d0183fa8969a314abdb8d02346baa0699e84",
    "split-square embed --audit": "85d1889a5c4e3b76ac0ada67814ac88b7e15ca71062c8dc82ace4ce864b8b72c",
    "split-square lift": "d6cd424b3c104166304dabb836c0408a5337751998cf3c0d70acc55198af1179",
    "split-square lift --truncate": "7f0f2206328a74a45fff2320be494a41e1d6784b9387c3d8cf7bf61615b73ea1",
    "split-square lift --format obj": "fccb7d64b2d8b14e2b33282af2b5110c225317f0b290d934c714616459e71974",
    "split-square verify drawn": "81ced92116c7c537f0ba17408041a87888ca0454b4357112b9b6c71099108aeb",
    "split-square verify off": "ac8aa078533212804deb051c4c7cccc318b2a312d298844e5ecf498666d8adac",
    "split-square diameter": "f38c2765cfa197dbbb6b9b1a584a186b8255b0a1db17fc0b9ddc675922fe747d",
    "split-square diameter --exact --witness": "584fb78f4f2cc69172b861e5a1a1e1545ce5b4cf1c9cef790ac83e5edf52d30f",
    "pentagon-fan shed --base": "dea015b1c2ae1e9114c951fc258a1389632278acb7b85754ddba7713a4378985",
    "pentagon-fan embed": "94f7b2ad0c4940467da353eacedd32d984e2a4e5330a040b8773740ab58f20bf",
    "pentagon-fan embed --audit": "e812d9f48c45f341b01f1622ff166855837901778ddd19696c111fedb79dc4bc",
    "pentagon-fan lift": "cd6921e0ecbcab9cf5f6ba3d25ad5df428d2fcfa267e4422ad4fc1cfe2b4fcb3",
    "pentagon-fan lift --truncate": "a54f7207c7a86ef67c53514e67dcb8a9f81abdde10a0462cc6c15db3843bc284",
    "pentagon-fan lift --format obj": "41fb03844324743cbed96eafda49e0b2f2535f5e9485e3c68b9b036e37638cf5",
    "pentagon-fan verify drawn": "f291b229987ad41892a682b0b4d95cf4865bc24b26bb4919e07b0dea59f866f3",
    "pentagon-fan verify off": "dc04854760d58fef01ed8d12285efdbe9dcf2080bd0b8fa8ae0340754120bb6b",
    "pentagon-fan diameter": "d9b877ced18282e72021744fee875b9b864272d28e33f68a886f60958135fe03",
    "pentagon-fan diameter --exact --witness": "e07c317eb62836f4a43ac75c37df857e96303f8e0a16de80034cb3279a8f37f8",
    "stacked-k4 shed --base": "3e7308d65ec53a264ddda8a037f7e57a43c46d5b75600956bfdedf6211bc6a81",
    "stacked-k4 embed": "ca5838588cdc2379f87232626992c63b46b1d5a734976b8a835915954167fc1d",
    "stacked-k4 embed --audit": "594b3e13085c86bbbcde919fe049bc9a8e16cc244c4e7f7f670056f7095fa7ba",
    "stacked-k4 lift": "20aef37f752ffe31b7b24275c130d39709138150ccfd7cf6459511add0fec263",
    "stacked-k4 lift --truncate": "eba909d83033d1a2278c948c09c7fdef33e27ace264899fa3b0e16b462f67304",
    "stacked-k4 lift --format obj": "462035b21e9ca325d96fb4e67eb3126bd22f2b8f2dd85a682c33d3d5cdf8db36",
    "stacked-k4 verify drawn": "765afae09514d50b00f9b36c735295aa86ddab18cd8b93e02b760695e88a0db0",
    "stacked-k4 verify off": "936cabe5f3540cf465f4171f9e26ebe505291acc0684958bde5627977ef035b4",
    "stacked-k4 verify truncated": "0b42c5f7921a999b682166a1a7627adf56567a987f49ec75fbffc1eff2af800b",
    "stacked-k4 diameter": "f38c2765cfa197dbbb6b9b1a584a186b8255b0a1db17fc0b9ddc675922fe747d",
    "stacked-k4 diameter --exact --witness": "58f130b5d61ea3d1ca5a9fa1a49e2fc365813ddff0f4169a3814f5503c9326ca",
}


def test_cli_outputs_match_golden_digests():
    got = digests()
    changed = sorted(k for k in GOLDEN.keys() | got.keys() if GOLDEN.get(k) != got.get(k))
    assert not changed, f"CLI output changed for: {changed}"


# sha256 of the stdout of gen-grid 64 64 3 --seed 1, taken before the
# generator flipped at the drawn rank and the chord floods stopped early
GEN_GRID_64_DIGEST = "402bbc47ed6c6d19d00dbb71f2866b52b05c18c0ba3e1ad3d1d4be7126eb9504"


def test_gen_grid_64x64_matches_its_pinned_digest():
    code, out, _ = run(["gen-grid", "64", "64", "3", "--seed", "1"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_GRID_64_DIGEST


BENCH_GOLDEN: dict[str, str] = {
    "bench --max-n 30": "16f9b8a57b549a708d53ee61305885698954138c4695b842e5e6ae34adabe85b",
    "bench --max-n 30 --seed 3": "f32d92ef55720a384693b21f1c7298400845c527bf45684d0e3da5315d36b2c0",
    "bench --max-n 5": "e52784c77496241bf03bab9453855332fd0e3d756053be363564850fef4878d9",
}


def test_bench_output_matches_golden_digests():
    # two stacked and two grid rows, then the usage error of an empty ladder
    got = {cmd: digest(*run(cmd.split())) for cmd in BENCH_GOLDEN}
    changed = sorted(k for k in BENCH_GOLDEN if BENCH_GOLDEN[k] != got[k])
    assert not changed, f"bench output changed for: {changed}"


def _with_height(off: str, index: int, change) -> str:
    """The OFF document with vertex ``index``'s height z replaced by change(z)."""
    lines = off.splitlines()
    at = next(i for i, line in enumerate(lines) if line and line[0] not in "#O")
    x, y, z = lines[at + 1 + index].split()
    lines[at + 1 + index] = f"{x} {y} {change(int(z))}"
    return "\n".join(lines) + "\n"


def _drawing(G: PlaneTriangulation, coords, order=None) -> str:
    return write_triangulation(
        PlaneTriangulation(G.vertices, G.triangles, G.boundary, coords), order
    )


def _greedy(G: PlaneTriangulation) -> tuple[int, ...]:
    return shedding_sequence(G, G.boundary[0], G.boundary[1]).order


def pentagram_wheel(r: int = 1000):
    """A 5-wheel whose rim is drawn as a pentagram around the hub: every
    face is ccw, but the outer cycle winds twice and crosses itself."""
    import math

    rim = {
        i: (round(r * math.cos(math.radians(90 + 144 * i))),
            round(r * math.sin(math.radians(90 + 144 * i))))
        for i in range(5)
    }
    G = PlaneTriangulation(range(6), [(i, (i + 1) % 5, 5) for i in range(5)], range(5))
    return G, {**rim, 5: (0, 0)}


def failing_documents() -> dict[str, str]:
    """Tampered lifts and drawings for verify: the certificate paths that end
    in FAIL, plus a flat boundary vertex and a pentagram that a convexity
    shortcut must not pass.  The stacked-40 and fan-40 ids are dense, so an
    id is also the OFF vertex index."""
    docs = instances()
    s40 = docs["stacked-40"]
    G40 = read_triangulation(s40).G
    interior = max(v for v in G40.vertices if v not in G40.boundary)
    off = run(["lift"], s40)[1]
    out = {
        "off-interior-lowered": _with_height(off, interior, lambda z: z - 1),
        "truncated-raised-above-top": _with_height(
            run(["lift", "--truncate"], s40)[1], interior, lambda z: z + 10**40
        ),
    }
    grid_off = run(["lift"], docs["grid-5x5-l3"])[1]
    out["grid-off-lowered"] = _with_height(grid_off, 12, lambda z: z - 1)

    spiral = PlaneTriangulation(range(10), [(0, i, i + 1) for i in range(1, 9)], range(10))
    coords = {0: (0, 0), 1: (5, 0), 2: (0, 6), 3: (-7, 0), 4: (0, -8),
              5: (9, 0), 6: (0, 10), 7: (-11, 0), 8: (0, -12), 9: (13, 1)}
    out["drawing-self-crossing"] = _drawing(spiral, coords, _greedy(spiral))

    s10 = read_triangulation(run(["embed"], docs["stacked-10"])[1])
    flipped = {v: (-x, y) for v, (x, y) in s10.G.coords.items()}
    out["drawing-cw"] = _drawing(s10.G, flipped, s10.order)

    f40 = read_triangulation(run(["embed"], docs["fan-40"])[1])
    raised = dict(f40.G.coords)
    x, y = raised[f40.order[11]]
    raised[f40.order[11]] = (x, 3 * y)
    out["drawing-prefix-12-reflex"] = _drawing(f40.G, raised, f40.order)

    d40 = read_triangulation(run(["embed"], s40)[1])
    lifted = dict(d40.G.coords)
    x, y = lifted[d40.order[4]]
    lifted[d40.order[4]] = (x, y + 10**6)  # faces stay ccw; prefix 6 turns reflex
    out["drawing-prefix-6-reflex"] = _drawing(d40.G, lifted, d40.order)

    flat = {0: (0, -1), 1: (6, 0), 2: (6, 6), 3: (3, 3), 4: (2, 2)}
    out["drawing-flat-boundary-vertex"] = _drawing(pentagon_fan(), flat, _greedy(pentagon_fan()))
    wheel, star = pentagram_wheel()
    out["drawing-pentagram"] = _drawing(wheel, star, _greedy(wheel))
    lines = ["OFF", "# a " + " ".join(map(str, _greedy(wheel))), "6 5 10"]
    lines += [f"{x} {y} {0 if v == 5 else 1}" for v, (x, y) in sorted(star.items())]
    lines += [f"3 {t[0]} {t[1]} {t[2]}" for t in wheel.triangles]
    out["off-pentagram"] = "\n".join(lines) + "\n"
    return out


def failing_digests() -> dict[str, str]:
    return {
        f"{label} verify": digest(*run(["verify"], doc))
        for label, doc in failing_documents().items()
    }


FAILING_GOLDEN: dict[str, str] = {
    "off-interior-lowered verify": "00a6181c68302477e3841c7f45675dc908b19b9e1bacbcda12408194f4305ec9",
    "truncated-raised-above-top verify": "927e7bc4a5471be3972f3b5dc36dd91ab8ebb5c394ba89dec52b73096b485e53",
    "grid-off-lowered verify": "b10ccb5bb0e7c06896ac94fead7f62e54080df587f42009593610949e0dfd61a",
    "drawing-self-crossing verify": "f44b2fba1e087995ab5456e8afcfaf7c3378b69de2d74916eb00fa7401a7f2ba",
    "drawing-cw verify": "83c0c8bf2223522c67957c780e9d8c909e13b62c5562a58bb3b4d449d141fcad",
    "drawing-prefix-12-reflex verify": "a78c48abd6764a91765421eb0bb3b2c47cede0396e8ad88a668347485eafaccf",
    "drawing-prefix-6-reflex verify": "6937e307cd6b6521a33ccd94ef325e1b12a32ce039d9cf2d3eb9bc97c8fb8d31",
    "drawing-flat-boundary-vertex verify": "12c880f629aa3b3629b1c7b44854ff118a73c2f8be0174f65518207634e0fc6c",
    "drawing-pentagram verify": "afae9c8c87d7fcc260221c8f3a521fd00818ef327ae91083d5a194a0476d31f6",
    "off-pentagram verify": "c1af19810a549196a0fe92c1d29127e65fd015b8741cd52148493a45ec26b533",
}


def test_failing_verify_reports_match_golden_digests():
    got = failing_digests()
    changed = sorted(
        k for k in FAILING_GOLDEN.keys() | got.keys() if FAILING_GOLDEN.get(k) != got.get(k)
    )
    assert not changed, f"verify output changed for: {changed}"


if __name__ == "__main__":
    print("GOLDEN: dict[str, str] = {")
    for key, value in digests().items():
        print(f'    "{key}": "{value}",')
    print("}")
    print("FAILING_GOLDEN: dict[str, str] = {")
    for key, value in failing_digests().items():
        print(f'    "{key}": "{value}",')
    print("}")
